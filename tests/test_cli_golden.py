"""Byte-for-byte CLI output on a fixed grid of small runs.

Each case writes its config and inputs to a temporary directory, runs
``seqgp.cli.main`` in process and compares what it wrote (stdout, or the
``--out`` file for ``build-regularizer``) with ``golden/cli_outputs.json``.
The grid covers every transform kind in text and JSON form with and without
covariance on ab^3 and ACGT^3, the connectedness, vc and Jenga kernels (the
Jenga one with a negative sign and a zero factor), three gauges, and the
predict, kernel-eval, build-regularizer and simulate commands.

Regenerate the golden file only for an intended output change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from seqgp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_outputs.json"

KERNELS = {
    "ab": {
        "connectedness": {"family": "connectedness", "z": [0.4, 0.25, 0.6]},
        "vc": {"family": "vc", "lambdas": [1.0, 0.5, 0.2, 0.05]},
        "jenga": {"family": "jenga", "signs": [1, -1, 1],
                  "factors": [[0.5, 0.3], [0.0, 0.6], [0.2, 0.4]]},
    },
    "ACGT": {
        "connectedness": {"family": "connectedness", "z": [0.4, 0.1, 0.6]},
        "vc": {"family": "vc", "lambdas": [1.0, 0.5, 0.2, 0.05]},
        "jenga": {"family": "jenga", "signs": [1, -1, 1],
                  "factors": [[0.5, 0.3, 0.2, 0.7], [0.0, 0.5, 0.3, 0.2],
                              [0.2, 0.4, 0.6, 0.1]]},
    },
}
GAUGES = {
    "uniform": {"lambda": 1.5, "pi": "uniform"},
    "lambda0": {"lambda": 0, "pi": "uniform"},
    "wildtype": {"lambda": "inf", "pi": "wild-type:"},  # completed per space
}
TRAIN = {
    "ab": [("aaa", 1.25), ("aba", -0.5), ("bba", 0.75), ("bbb", 2.0), ("abb", -1.125)],
    "ACGT": [("ACG", 1.5), ("AAA", -0.25), ("TGC", 0.5), ("CCG", 2.25), ("GTA", -1.0),
             ("ACT", 0.125), ("TTT", 0.875), ("GAG", -0.75)],
}
REFERENCE = {"ab": "aab", "ACGT": "ACG"}
GAUGE_KEYS = {"ab": "-,1:a,2:b,1:b;3:a,1:a;2:b;3:b",
              "ACGT": "-,1:A,2:T,1:C;3:G,1:G;2:A;3:T"}
OFF_REFERENCE_KEYS = {"ab": "-,1:b,3:a,1:b;2:b,1:b;2:b;3:a",
                      "ACGT": "-,1:C,3:A,1:T;2:A,1:G;2:G;3:T"}
KINDS = ("gauge-weights", "hierarchical", "zero-sum", "wild-type", "background-averaged",
         "fourier", "walsh-hadamard")


def _transform(kind: str, alphabet: str) -> tuple[dict, str]:
    """Transform block and query keys of one kind on one space."""
    if kind in ("gauge-weights", "hierarchical", "zero-sum"):
        return {"kind": kind}, GAUGE_KEYS[alphabet]
    if kind == "walsh-hadamard":
        return {"kind": kind, "reference": "aba"}, "-,1,2;3,1;2;3"
    if kind == "fourier" and alphabet == "ab":
        # the default reference, index 0 at every position
        return {"kind": kind}, "-,1:b,2:b;3:b,1:b;2:b;3:b"
    return {"kind": kind, "reference": REFERENCE[alphabet]}, OFF_REFERENCE_KEYS[alphabet]


def _posterior_case(kind, alphabet, kernel, gauge, as_json, covariance):
    transform, keys = _transform(kind, alphabet)
    gauge_cfg = dict(GAUGES[gauge])
    if gauge == "wildtype":
        gauge_cfg["pi"] += REFERENCE[alphabet]
    name = (f"posterior-{kind}-{alphabet}-{kernel}-{gauge}-"
            f"{'json' if as_json else 'text'}-{'cov' if covariance else 'sd'}")
    return name, {
        "config": {"alphabet": alphabet, "length": 3, "kernel": KERNELS[alphabet][kernel],
                   "gauge": gauge_cfg, "noise_variance": 0.25, "transform": transform,
                   "output": {"covariance": covariance}},
        "train": TRAIN[alphabet],
        "argv": ["posterior", "--coeffs=" + keys] + (["--json"] if as_json else []),
    }


def _cases() -> dict:
    cases = []
    for alphabet in ("ab", "ACGT"):
        for kind in KINDS:
            if kind == "walsh-hadamard" and alphabet != "ab":
                continue
            for as_json in (False, True):
                for covariance in (False, True):
                    cases.append(_posterior_case(kind, alphabet, "connectedness", "uniform",
                                                 as_json, covariance))
            for kernel in ("vc", "jenga"):
                cases.append(_posterior_case(kind, alphabet, kernel, "uniform", False, True))
        for kind in ("gauge-weights", "hierarchical"):
            for gauge in ("lambda0", "wildtype"):
                for kernel in ("connectedness", "jenga"):
                    cases.append(_posterior_case(kind, alphabet, kernel, gauge, False, True))
                cases.append(_posterior_case(kind, alphabet, "vc", gauge, True, False))

    ab3 = {"alphabet": "ab", "length": 3, "kernel": KERNELS["ab"]["jenga"],
           "noise_variance": 0.25}
    for as_json in (False, True):
        flag = ["--json"] if as_json else []
        cases.append((f"predict-{'json' if as_json else 'text'}", {
            "config": dict(ab3, output={"covariance": True, "precision": 12}),
            "train": TRAIN["ab"],
            "argv": ["predict", "--coeffs=aaa,bab,abb,bbb"] + flag,
        }))
        cases.append((f"kernel-eval-{'json' if as_json else 'text'}", {
            "config": ab3,
            "pairs": [("aaa", "aaa"), ("aab", "bba"), ("bab", "aba"), ("bbb", "aaa")],
            "argv": ["kernel-eval"] + flag,
        }))
        cases.append((f"build-regularizer-{'json' if as_json else 'text'}", {
            "config": {"alphabet": "ab", "length": 2,
                       "kernel": {"family": "connectedness", "z": [0.4, -0.3]},
                       "gauge": {"lambda": 2.0, "pi": [[0.3, 0.7], [0.5, 0.5]]},
                       "output": {"precision": 8}},
            "argv": ["build-regularizer", "--out", "{tmp}/lam.out"] + flag,
            "read": "lam.out",
        }))
    cases.append(("simulate-function", {
        "config": dict(ab3, simulate={"samples": 3, "source": "function"}),
        "argv": ["simulate", "--seed", "5"],
    }))
    cases.append(("simulate-gnk", {
        "config": {"alphabet": "ab", "length": 3,
                   "simulate": {"samples": 2, "source": "gnk",
                                "neighborhoods": [[1, 2], [2, 3], [3, 1]]}},
        "argv": ["simulate", "--seed", "5"],
    }))
    return dict(cases)


CASES = _cases()


def run_case(case: dict, tmp: Path) -> str:
    """Everything the case's command wrote, as one string."""
    (tmp / "config.json").write_text(json.dumps(case["config"]))
    argv = [a.replace("{tmp}", str(tmp)) for a in case["argv"]]
    argv += ["--config", str(tmp / "config.json")]
    if "train" in case:
        (tmp / "train.csv").write_text(
            "sequence,value\n" + "".join(f"{s},{v}\n" for s, v in case["train"]))
        argv += ["--data", str(tmp / "train.csv")]
    if "pairs" in case:
        (tmp / "pairs.csv").write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in case["pairs"]))
        argv += ["--data", str(tmp / "pairs.csv")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    if "read" in case:
        return (tmp / case["read"]).read_text()
    return out.getvalue()


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    assert run_case(CASES[name], tmp_path).encode() == want.encode()


if __name__ == "__main__":
    import tempfile

    outputs = {}
    for name, case in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            outputs[name] = run_case(case, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} cases to {GOLDEN}")
