import json
import subprocess
import sys

import numpy as np
import pytest

from seqgp import DataError, SequenceSpace
from seqgp.cli import main, parse_query, parse_training_csv

BASE_CONFIG = {
    "alphabet": "ab",
    "length": 2,
    "kernel": {"family": "geometric", "beta": 0.5},
    "gauge": {"lambda": "inf", "pi": "uniform"},
    "noise_variance": 0.25,
    "transform": {"kind": "gauge-weights"},
    "output": {"covariance": False, "precision": 10},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def write_train(tmp_path, rows, name="train.csv"):
    path = tmp_path / name
    path.write_text("sequence,value\n" + "".join(f"{s},{v}\n" for s, v in rows))
    return str(path)


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "seqgp", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestParseTrainingCsv:
    def test_two_rows(self, tmp_path):
        sp = SequenceSpace("ab", 2)
        path = write_train(tmp_path, [("aa", 1.0), ("ab", 0.5)])
        data = parse_training_csv(path, sp, 1.0)
        assert data.t == 2
        np.testing.assert_array_equal(data.X, [[0, 0], [0, 1]])
        np.testing.assert_allclose(data.y, [1.0, 0.5])

    def test_unknown_character_names_row(self, tmp_path):
        sp = SequenceSpace("ab", 2)
        path = write_train(tmp_path, [("ac", 1.0)])
        with pytest.raises(DataError, match=r":2:.*'c'"):
            parse_training_csv(path, sp, 1.0)

    def test_empty_section_is_prior_mode(self, tmp_path):
        sp = SequenceSpace("ab", 2)
        path = tmp_path / "empty.csv"
        path.write_text("sequence,value\n")
        assert parse_training_csv(str(path), sp, 1.0).t == 0

    def test_non_finite_rejected(self, tmp_path):
        sp = SequenceSpace("ab", 2)
        path = write_train(tmp_path, [("aa", "nan")])
        with pytest.raises(DataError, match="finite"):
            parse_training_csv(path, sp, 1.0)

    def test_bad_header(self, tmp_path):
        sp = SequenceSpace("ab", 2)
        path = tmp_path / "bad.csv"
        path.write_text("seq,val\naa,1.0\n")
        with pytest.raises(DataError, match="header"):
            parse_training_csv(str(path), sp, 1.0)


class TestParseQuery:
    def test_empty_subsequence(self):
        sp = SequenceSpace("ab", 2)
        keys = parse_query(["-"], "zero-sum", sp)
        assert keys == [sp.parse_subsequence("-")]

    def test_positional_form(self):
        sp = SequenceSpace("abcde", 5)
        keys = parse_query(["2:b;5:e"], "zero-sum", sp)
        assert keys[0].positions == (2, 5)

    def test_canonicalization_and_dedup(self):
        sp = SequenceSpace("abcde", 5)
        keys = parse_query(["5:b;2:e", "2:e;5:b", "-"], "zero-sum", sp)
        assert len(keys) == 2
        assert keys[0].positions == (2, 5)

    def test_malformed_entry(self):
        sp = SequenceSpace("ab", 2)
        with pytest.raises(DataError, match="bad query entry"):
            parse_query(["1-b"], "zero-sum", sp)


class TestCliRuns:
    def test_posterior_empty_training_is_prior(self, tmp_path):
        cfg = write_config(tmp_path)
        data = tmp_path / "empty.csv"
        data.write_text("sequence,value\n")
        code, out, err = run_cli("posterior", "--config", cfg, "--data", str(data),
                                 "--coeffs=-,1:a")
        assert code == 0, err
        lines = [l.split("\t") for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == ["label", "mean", "sd"]
        assert float(lines[1][1]) == 0.0
        assert float(lines[2][1]) == 0.0

    def test_posterior_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, {"output": {"covariance": True, "precision": 10}})
        data = write_train(tmp_path, [("aa", 1.0), ("ab", 0.5), ("ba", -0.2)])
        args = ("posterior", "--config", cfg, "--data", data, "--coeffs=-,1:a,2:b,1:a;2:b")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    def test_predict_interpolates_at_low_noise(self, tmp_path):
        cfg = write_config(tmp_path, {"noise_variance": 1e-8})
        data = write_train(tmp_path, [("aa", 1.0), ("ab", 0.5)])
        code, out, err = run_cli("predict", "--config", cfg, "--data", data,
                                 "--coeffs", "aa,ab")
        assert code == 0, err
        rows = [l.split("\t") for l in out.splitlines() if not l.startswith("#")][1:]
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-4)
        assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-4)

    def test_kernel_eval(self, tmp_path):
        cfg = write_config(tmp_path)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("x,y\naa,aa\naa,bb\n")
        code, out, err = run_cli("kernel-eval", "--config", cfg, "--data", str(pairs))
        assert code == 0, err
        rows = [l.split("\t") for l in out.splitlines() if not l.startswith("#")][1:]
        assert float(rows[0][2]) == pytest.approx(1.0)
        assert float(rows[1][2]) == pytest.approx(0.25)

    def test_build_regularizer(self, tmp_path):
        cfg = write_config(tmp_path)
        out_path = tmp_path / "reg.csv"
        code, _, err = run_cli("build-regularizer", "--config", cfg, "--out", str(out_path))
        assert code == 0, err
        lines = out_path.read_text().splitlines()
        assert lines[0].split(",")[0] == "label"
        assert len(lines) == 10  # header plus one row per subsequence

    def test_simulate_deterministic_with_seed(self, tmp_path):
        cfg = write_config(tmp_path, {"simulate": {"samples": 3}})
        a = run_cli("simulate", "--config", cfg, "--seed", "42")
        b = run_cli("simulate", "--config", cfg, "--seed", "42")
        c = run_cli("simulate", "--config", cfg, "--seed", "43")
        assert a[0] == b[0] == c[0] == 0
        assert a[1] == b[1]
        assert a[1] != c[1]
        header = a[1].splitlines()[0].split(",")
        assert header == ["sequence", "sample_1", "sample_2", "sample_3"]

    def test_verify_exits_zero(self):
        code, out, err = run_cli("verify")
        assert code == 0, err
        assert "comparisons passed" in out
        assert "FAIL" not in out

    def test_json_mode(self, tmp_path):
        cfg = write_config(tmp_path)
        data = write_train(tmp_path, [("aa", 1.0)])
        code, out, err = run_cli("posterior", "--config", cfg, "--data", data,
                                 "--coeffs=-", "--json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["command"] == "posterior"
        assert doc["coefficients"][0]["label"] == "-"

    def test_query_file_and_out_file(self, tmp_path):
        cfg = write_config(tmp_path)
        data = write_train(tmp_path, [("aa", 1.0), ("bb", -1.0)])
        query = tmp_path / "query.txt"
        query.write_text("-\n1:a\n\n1:b;2:b\n")
        out_path = tmp_path / "result.tsv"
        code, out, err = run_cli("posterior", "--config", cfg, "--data", data,
                                 "--query", str(query), "--out", str(out_path))
        assert code == 0, err
        assert out == ""
        lines = out_path.read_text().splitlines()
        assert [l.split("\t")[0] for l in lines[2:]] == ["-", "1:a", "1:b;2:b"]

    def test_query_and_coeffs_are_exclusive(self, tmp_path):
        cfg = write_config(tmp_path)
        query = tmp_path / "query.txt"
        query.write_text("-\n")
        code, _, err = run_cli("posterior", "--config", cfg, "--query", str(query),
                               "--coeffs=-")
        assert code == 3

    def test_simulate_gnk_source(self, tmp_path):
        cfg = write_config(tmp_path, {
            "simulate": {"samples": 2, "source": "gnk",
                         "neighborhoods": [[1, 2], [2]]},
        })
        code, out, err = run_cli("simulate", "--config", cfg, "--seed", "5")
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "sequence,sample_1,sample_2"
        assert len(lines) == 5  # header plus one row per sequence


class TestCliErrors:
    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"mystery": 1})
        code, _, err = run_cli("posterior", "--config", cfg, "--coeffs=-")
        assert code == 2
        assert "error[CONFIG]" in err

    def test_missing_config_exits_2(self):
        code, _, err = run_cli("posterior", "--coeffs=-")
        assert code == 2

    def test_bad_data_exits_3(self, tmp_path):
        cfg = write_config(tmp_path)
        data = write_train(tmp_path, [("ac", 1.0)])
        code, _, err = run_cli("posterior", "--config", cfg, "--data", data, "--coeffs=-")
        assert code == 3
        assert "error[DATA]" in err

    def test_bad_query_entry_exits_3(self, tmp_path):
        cfg = write_config(tmp_path)
        code, _, err = run_cli("posterior", "--config", cfg, "--coeffs", "3:a")
        assert code == 3

    def test_biallelic_kind_needs_alpha_two(self, tmp_path):
        cfg = write_config(tmp_path, {"alphabet": "abc",
                                      "kernel": {"family": "geometric", "beta": 0.5},
                                      "transform": {"kind": "walsh-hadamard"}})
        code, _, err = run_cli("posterior", "--config", cfg, "--coeffs=-")
        assert code == 2

    def test_size_guard_names_guard(self, tmp_path):
        cfg = write_config(tmp_path, {
            "length": 25,
            "kernel": {"family": "vc", "lambdas": [1.0] * 26},
            "transform": {"kind": "zero-sum"},
        })
        code, _, err = run_cli("posterior", "--config", cfg, "--coeffs=-")
        assert code == 2
        assert "dense" in err

    def test_main_function_return_codes(self, tmp_path):
        # exercised in-process for coverage of the dispatch
        cfg = write_config(tmp_path)
        assert main(["posterior", "--config", cfg, "--coeffs", "zz"]) == 3

    def test_numerical_failure_exits_4(self, tmp_path):
        # duplicate rows with sub-epsilon noise make the system exactly
        # singular in floats; an empty jitter ladder leaves no recovery
        cfg = write_config(tmp_path, {"noise_variance": 1e-17, "jitter": [0.0]})
        data = write_train(tmp_path, [("aa", 1.0), ("aa", 1.0), ("aa", 1.0)])
        code, _, err = run_cli("posterior", "--config", cfg, "--data", data, "--coeffs=-")
        assert code == 4
        assert "error[NUMERICAL]" in err

    @pytest.mark.parametrize("override", [
        {"length": "two"},
        {"length": 2.5},
        {"alphabet": ["a", "b"]},
        {"jitter": "abc"},
        {"jitter": ["abc"]},
        {"jitter": [-1e-8]},
        {"noise_variance": "0.25"},
        {"noise_variance": float("inf")},
        {"output": {"covariance": "yes"}},
        {"output": {"precision": "10"}},
        {"transform": {"kind": 3}},
        {"transform": {"kind": "gauge-weights", "reference": "ab"}},
        {"simulate": {"samples": "three"}},
        {"kernel": {"family": "connectedness", "z": "ab"}},
        {"gauge": {"lambda": "inf", "pi": [["x", "y"], [0.5, 0.5]]}},
    ])
    def test_mistyped_config_field_exits_2(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, override)
        assert main(["posterior", "--config", cfg, "--coeffs=-"]) == 2
        assert "error[CONFIG]" in capsys.readouterr().err


class TestNonfiniteOrderVariances:
    # Python's json reads the NaN and Infinity literals; a vc kernel must
    # reject both as a config error in every subcommand that builds it
    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_vc_lambda_literal_exits_2(self, tmp_path, capsys, literal):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(BASE_CONFIG, transform={"kind": "zero-sum"}))
                       .replace('"kernel": {"family": "geometric", "beta": 0.5}',
                                '"kernel": {"family": "vc", "lambdas": [1, %s, 1]}' % literal))
        assert literal in cfg.read_text()
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("x,y\naa,ab\n")
        assert main(["kernel-eval", "--config", str(cfg), "--data", str(pairs)]) == 2
        assert "error[CONFIG]" in capsys.readouterr().err
        data = write_train(tmp_path, [("aa", 1.0), ("ab", 0.4)])
        assert main(["posterior", "--config", str(cfg), "--data", data, "--coeffs=-"]) == 2
        assert "error[CONFIG]" in capsys.readouterr().err


class TestHugeIntegers:
    # JSON integers have no size limit; sizes derived from them must be
    # refused by the guards before anything is computed or allocated
    def test_huge_length_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"length": 10 ** 400})
        assert main(["posterior", "--config", cfg, "--coeffs=-"]) == 2
        assert "error[CONFIG]" in capsys.readouterr().err

    def test_huge_sample_count_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"simulate": {"samples": 10 ** 400}})
        assert main(["simulate", "--config", cfg, "--seed", "1"]) == 2
        assert "error[CONFIG]" in capsys.readouterr().err

    def test_function_draws_past_the_dense_kernel_cap_exit_2(self, tmp_path, capsys):
        # ab/17 has 131,072 sequences, inside the sequence cap, but its dense
        # kernel has 2**34 entries; the guard must refuse it before any build
        from unittest import mock

        from seqgp.kernels import ProductKernel

        cfg = write_config(tmp_path, {"length": 17, "simulate": {"samples": 1}})
        with mock.patch.object(ProductKernel, "dense", side_effect=AssertionError("built")):
            assert main(["simulate", "--config", cfg, "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "error[CONFIG]" in err and "dense prior kernel" in err

    def test_gnk_draws_build_only_the_neighborhood_columns(self, tmp_path):
        # ab/11 has 177,147 subsequences, so the whole indicator matrix would
        # take 2.9 GB; the draws need only 44 of its columns (0.7 MB)
        import tracemalloc
        from unittest import mock

        hoods = [[p, p % 11 + 1] for p in range(1, 12)]
        cfg = write_config(tmp_path, {"length": 11, "simulate": {
            "samples": 2, "source": "gnk", "neighborhoods": hoods}})
        out = tmp_path / "draws.csv"
        with mock.patch.object(SequenceSpace, "phi_dense", side_effect=AssertionError("built")):
            tracemalloc.start()
            try:
                code = main(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert len(out.read_text().splitlines()) == 2 ** 11 + 1
        assert peak < 4 * 2 ** 20


class TestImports:
    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy.linalg loads on first use, not at import time
        code = "import sys, seqgp.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestVcRouting:
    def test_vc_posterior_uses_dense_route_and_matches_oracle(self, tmp_path):
        import numpy as np
        from seqgp import GaugeSpec, ProductDistribution, TrainingData, VcKernel, transform_rows
        from seqgp.oracle import dense_transform_posterior

        cfg = write_config(tmp_path, {
            "kernel": {"family": "vc", "lambdas": [1.0, 0.5, 0.25]},
            "output": {"covariance": False, "precision": 12},
        })
        data = write_train(tmp_path, [("aa", 1.0), ("ab", 0.4), ("bb", -0.6)])
        code, out, err = run_cli("posterior", "--config", cfg, "--data", data,
                                 "--coeffs=-,1:a,1:b;2:b")
        assert code == 0, err
        sp = SequenceSpace("ab", 2)
        kernel = VcKernel([1.0, 0.5, 0.25], sp)
        gauge = GaugeSpec(1.0, ProductDistribution.uniform(sp))
        train = TrainingData.from_sequences(sp, ["aa", "ab", "bb"], [1.0, 0.4, -0.6], 0.25)
        keys = [sp.parse_subsequence(c) for c in ("-", "1:a", "1:b;2:b")]
        t = transform_rows("gauge-weights", sp, keys, gauge=gauge)
        want = dense_transform_posterior(t.dense_matrix(sp), kernel.dense(), train, sp)
        rows = [l.split("\t") for l in out.splitlines() if not l.startswith("#")][1:]
        for i, row in enumerate(rows):
            assert float(row[1]) == pytest.approx(want.mean[i], abs=1e-10)
            assert float(row[2]) == pytest.approx(np.sqrt(want.cov[i, i]), abs=1e-10)

    def test_vc_singular_training_system_honors_jitter(self, tmp_path, capsys):
        # duplicate rows under vanishing noise make the dense route's training
        # system singular; the configured ladder decides whether it recovers
        from seqgp import TrainingData, VcKernel, transform_rows
        from seqgp.oracle import dense_transform_posterior

        lambdas = [1.0, 0.5, 0.25, 0.125]
        rows = [("AAA", 1.0), ("AAA", 1.0)]
        base = {"alphabet": "ACGT", "length": 3,
                "kernel": {"family": "vc", "lambdas": lambdas},
                "noise_variance": 1e-300, "transform": {"kind": "zero-sum"}}
        data = write_train(tmp_path, rows)

        cfg = write_config(tmp_path, dict(base, jitter=[0.0]))
        assert main(["posterior", "--config", cfg, "--data", data, "--coeffs=-,1:A"]) == 4
        err = capsys.readouterr().err
        assert "error[NUMERICAL]" in err and "Traceback" not in err

        cfg = write_config(tmp_path, dict(base, jitter=[1e-6]))
        out_path = tmp_path / "out.tsv"
        assert main(["posterior", "--config", cfg, "--data", data, "--coeffs=-,1:A",
                     "--out", str(out_path)]) == 0
        sp = SequenceSpace("ACGT", 3)
        keys = [sp.parse_subsequence(c) for c in ("-", "1:A")]
        t = transform_rows("zero-sum", sp, keys)
        train = TrainingData.from_sequences(sp, [s for s, _ in rows], [v for _, v in rows],
                                            1e-300)
        want = dense_transform_posterior(t.dense_matrix(sp), VcKernel(lambdas, sp).dense(),
                                         train, sp, ladder=(1e-6,))
        got = [l.split("\t") for l in out_path.read_text().splitlines()[2:]]
        np.testing.assert_allclose([float(r[1]) for r in got], want.mean, rtol=1e-9)


def test_vc_posterior_table_matches_dense_oracle(tmp_path, monkeypatch):
    # the streamed route, with blocks that split ACGT^4 (256 sequences)
    # raggedly, prints the dense oracle's numbers to the printed precision
    from seqgp import TrainingData, VcKernel, posterior, transform_rows
    from seqgp.oracle import dense_transform_posterior

    monkeypatch.setattr(posterior, "_STREAM_BLOCK", 60)
    lambdas = [0.01, 3.0, 0.5, 20.0, 0.1]
    precision = 8
    cfg = write_config(tmp_path, {
        "alphabet": "ACGT", "length": 4,
        "kernel": {"family": "vc", "lambdas": lambdas},
        "transform": {"kind": "background-averaged", "reference": "ACGT"},
        "output": {"covariance": True, "precision": precision},
    })
    rng = np.random.default_rng(7)
    train = ["".join(rng.choice(list("ACGT"), 4)) for _ in range(30)]
    y = rng.standard_normal(30).round(3)
    data = write_train(tmp_path, list(zip(train, y)))
    coeffs = ["-", "1:C", "2:A;4:A", "1:G;2:T;3:A", "1:T;2:G;3:T;4:C"]
    out_path = tmp_path / "out.tsv"
    assert main(["posterior", "--config", cfg, "--data", data,
                 "--coeffs=" + ",".join(coeffs), "--out", str(out_path)]) == 0

    sp = SequenceSpace("ACGT", 4)
    t = transform_rows("background-averaged", sp, [sp.parse_subsequence(c) for c in coeffs],
                       reference="ACGT")
    want = dense_transform_posterior(t.dense_matrix(sp), VcKernel(lambdas, sp).dense(),
                                     TrainingData.from_sequences(sp, train, y, 0.25), sp)
    lines = out_path.read_text().splitlines()
    assert lines[1].split("\t") == ["label", "mean", "sd"] + [f"cov:{l}" for l in t.labels]
    rows = [line.split("\t") for line in lines[2:]]
    assert [r[0] for r in rows] == t.labels
    got = np.array([[float(v) for v in r[1:]] for r in rows])
    expected = np.column_stack([want.mean, np.sqrt(np.diag(want.cov)), want.cov])
    # a value printed to p significant digits is within half a unit in the
    # p-th digit; the routes themselves agree far more closely than that
    scale = np.abs(expected).max()
    np.testing.assert_allclose(got, expected, rtol=10.0 ** (1 - precision),
                               atol=scale * 10.0 ** -(precision + 2))
