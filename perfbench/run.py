"""Run one seqgp benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload coef-dna27 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from a traced run.  ``--smoke`` shrinks every workload to
a toy size for the benchmark's own tests.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it start with ``#`` and record the
environment and the sample count.  The benchmark imports seqgp from the
checkout's ``src`` directory and exits with code 2 when it is missing.

BENCHMARK.json at the repository root lists the workloads and metrics;
README.md next to this file says why each exists and what should move them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 15
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import {target}; print(time.perf_counter() - t)")

# (metric, span name, field): "s" sums durations, "self_s" sums self times,
# "calls" counts spans, anything else sums that count from the spans.
LAYER_METRICS = [
    ("kernels.matrix.s", "kernels.matrix", "s"),
    ("kernels.matrix.calls", "kernels.matrix", "calls"),
    ("kernels.matrix.entries", "kernels.matrix", "entries"),
    ("kernels.dense.self_s", "kernels.dense", "self_s"),
    ("gauges.dense_matrix.s", "gauges.dense_matrix", "s"),
    ("gauges.transform_rows.s", "gauges.transform_rows", "s"),
    ("oracle.dense_transform_posterior.self_s", "oracle.dense_transform_posterior", "self_s"),
    ("linalg.factor.s", "linalg.factor", "s"),
    ("linalg.factor.calls", "linalg.factor", "calls"),
    ("linalg.factor.jitter_steps", "linalg.factor", "jitter_steps"),
    ("linalg.solve.s", "linalg.solve", "s"),
    ("linalg.solve.calls", "linalg.solve", "calls"),
    ("linalg.solve.rhs_cols", "linalg.solve", "rhs_cols"),
    ("posterior.gauge_weight_posterior.self_s", "posterior.gauge_weight_posterior", "self_s"),
    ("posterior.transform_posterior.self_s", "posterior.transform_posterior", "self_s"),
    ("posterior.mk_matrix.s", "posterior.mk_matrix", "s"),
    ("posterior.mkmt_matrix.s", "posterior.mkmt_matrix", "s"),
    ("regress.gp_posterior.self_s", "regress.gp_posterior", "self_s"),
    ("estimators.predict.self_s", "estimators.predict", "self_s"),
    ("estimators.coefficient_posterior.self_s", "estimators.coefficient_posterior", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("cli.parse_training_csv.s", "cli.parse_training_csv", "s"),
    ("seqspace.encode_batch.s", "seqspace.encode_batch", "s"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def cap_blas_threads() -> None:
    """One BLAS thread unless the environment asks for more, never above the cores.

    On a shared host a second BLAS thread waits on whichever core the host
    has taken away, which made run medians spread several times wider.
    """
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, 1))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, NPROC)))


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None when not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "seqgp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": blas_threads(),
        "nproc": NPROC, "git_commit": commit, "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def import_seconds(target: str) -> float:
    """Wall seconds of ``import target`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(target=target), str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def prepare_seconds(wl, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        wl.prepare()
        times.append(time.perf_counter() - start)
    return times


def _timed_op(wl, inp) -> dict:
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        out, error = wl.run(inp), None
    except Exception:
        out, error = None, traceback.format_exc()
    wall1, cpu1 = time.perf_counter(), time.process_time()
    return {"inp": inp, "out": out, "error": error, "wall": wall1 - wall0, "cpu": cpu1 - cpu0}


def run_ops(wl, seconds: float, tracer) -> list[dict]:
    """The closed loop: ops back to back until ``seconds`` have passed.

    In a traced run, odd ops run untraced and even ops traced, so both
    medians come from the same process and the same span of time.
    """
    min_ops = 4 if tracer is not None else 3
    records = []
    deadline = time.perf_counter() + seconds
    i = 1
    while len(records) < min_ops or time.perf_counter() < deadline:
        inp = wl.make_input(i)
        traced = tracer is not None and i % 2 == 0
        if traced:
            with tracer.installed(), tracer.span("op") as root:
                record = _timed_op(wl, inp)
            record["root"] = root
        else:
            record = _timed_op(wl, inp)
        record["traced"] = traced
        records.append(record)
        i += 1
    return records


def check_ops(wl, records) -> tuple[int, float]:
    """Check every op against its reference; returns (failed, worst error)."""
    from reference import TOLERANCE

    failed, worst = 0, 0.0
    for record in records:
        err = float("inf")
        if record["error"] is None:
            try:
                err = wl.check(record["inp"], record["out"])
            except Exception:
                record["error"] = traceback.format_exc()
        if record["error"] is not None:
            print(record["error"], file=sys.stderr)
        if not err <= TOLERANCE:
            failed += 1
        worst = max(worst, err)
        wl.discard(record["inp"])
    return failed, worst


def layer_metrics(tracer, records, fit_times) -> dict:
    from tracing import descendants, self_times

    own = self_times(tracer.spans)
    per_op = {name: [] for name, _, _ in LAYER_METRICS}
    attributed = []
    for record in records:
        if not record["traced"]:
            continue
        below = descendants(tracer.spans, record["root"])
        for metric, span_name, field in LAYER_METRICS:
            spans = [s for s in below if s.name == span_name]
            if field == "s":
                value = sum((s.duration for s in spans), 0.0)
            elif field == "self_s":
                value = sum((own[s.id] for s in spans), 0.0)
            elif field == "calls":
                value = len(spans)
            else:
                value = sum(s.counts.get(field, 0) for s in spans)
            per_op[metric].append(value)
        attributed.append(sum(own[s.id] for s in below) / record["root"].duration)
    metrics = {}
    for metric, _, field in LAYER_METRICS:
        unit = "s" if field in ("s", "self_s") else "count"
        metrics[metric] = {"value": statistics.median(per_op[metric]), "unit": unit}
    metrics["estimators.fit.s"] = {"value": statistics.median(fit_times), "unit": "s"}
    traced = statistics.median(r["wall"] for r in records if r["traced"])
    untraced = statistics.median(r["wall"] for r in records if not r["traced"])
    metrics["trace.op_p50_s"] = {"value": traced, "unit": "s"}
    metrics["trace.attributed_frac"] = {"value": statistics.median(attributed), "unit": "frac"}
    metrics["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "unit": "frac"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "seqgp" / "__init__.py").is_file():
        print(f"perfbench: no seqgp sources under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    repeats = 2 if args.smoke else SETUP_REPEATS

    imports = [] if args.trace else [import_seconds(cls.import_target) for _ in range(repeats)]
    import seqgp

    if Path(seqgp.__file__).resolve().parent != SRC / "seqgp":
        print(f"perfbench: imported seqgp from {seqgp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(args.seed)))

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = cls(args.seed, workdir, args.smoke)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            with tracer.installed():
                prepares = prepare_seconds(wl, repeats)
            fit_times = [s.duration for s in tracer.spans if s.name == "estimators.fit"]
        else:
            prepares = prepare_seconds(wl, repeats)
        warm = wl.make_input(0)
        wl.run(warm)
        wl.discard(warm)

        records = run_ops(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, worst = check_ops(wl, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    walls = [r["wall"] for r in records]
    quartiles = statistics.quantiles(walls, n=4) if attempted > 1 else walls * 3
    print(f"# {args.workload}: ops={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.4g} max_rel_error={worst:.3e} "
          f"op_s_quartiles={[round(q, 4) for q in quartiles]}")
    if tracer is not None:
        metrics = layer_metrics(tracer, records, fit_times or [0.0])
    else:
        metrics = {
            "op_p50_s": {"value": statistics.median(walls), "unit": "s"},
            "op_cpu_p50_s": {"value": statistics.median(r["cpu"] for r in records),
                             "unit": "s"},
            "setup_s": {"value": statistics.median(a + b for a, b in zip(imports, prepares)),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
