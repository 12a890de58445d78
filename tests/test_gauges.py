import math

import numpy as np
import pytest

from seqgp import (
    ConfigError,
    EMPTY_SUBSEQUENCE,
    GaugeSpec,
    InvalidIndexError,
    ParameterError,
    ProductDistribution,
    SequenceSpace,
    Subsequence,
    eta_from_lambda,
    marginalization_residual,
    penalty_dense,
    penalty_entry,
    projection_dense,
    projection_entry,
    transform_rows,
)
from seqgp.gauges import (
    KIND_RULES,
    TRANSFORM_KINDS,
    all_transform_keys,
    b_matrix_dense,
    b_matrix_row,
    gauge_from_config,
    kind_rules,
    parse_coefficient_key,
)

from conftest import rand_gauge, rand_pi, small_spaces


class TestEtaFromLambda:
    def test_values(self):
        assert eta_from_lambda(1.0) == pytest.approx(0.5)
        assert eta_from_lambda(math.inf) == 1.0
        assert eta_from_lambda(0.0) == 0.0

    def test_monotone(self):
        lams = [0.0, 0.1, 1.0, 10.0, 1e6, math.inf]
        etas = [eta_from_lambda(v) for v in lams]
        assert all(a < b or (a == b == 1.0) for a, b in zip(etas, etas[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            eta_from_lambda(-0.1)

    def test_gauge_lambda_roundtrip(self):
        sp = SequenceSpace("ab", 1)
        pi = ProductDistribution.uniform(sp)
        assert GaugeSpec.from_lambda(3.0, pi).lam == pytest.approx(3.0)
        assert GaugeSpec.from_lambda(math.inf, pi).lam == math.inf


class TestProjection:
    def test_empty_row_entry(self):
        sp = SequenceSpace("ab", 1)
        g = GaugeSpec(1.0, ProductDistribution.uniform(sp))
        for c in range(2):
            entry = projection_entry(g, EMPTY_SUBSEQUENCE, Subsequence((1,), (c,)), sp)
            assert entry == pytest.approx(0.5)

    def test_trivial_gauge_structure(self):
        # at eta = 0, only full-length rows survive, matching contained subsequences
        sp = SequenceSpace("ab", 2)
        g = GaugeSpec(0.0, ProductDistribution.uniform(sp))
        for sub_row in sp.enumerate_subsequences():
            for sub_col in sp.enumerate_subsequences():
                entry = projection_entry(g, sub_row, sub_col, sp)
                if sub_row.size < sp.length:
                    assert entry == 0.0
                else:
                    contained = all(sub_row.char_at(p) == c
                                    for p, c in zip(sub_col.positions, sub_col.chars))
                    assert entry == (1.0 if contained else 0.0)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    def test_idempotent(self, eta, rng):
        sp = SequenceSpace("ab", 2)
        g = GaugeSpec(eta, rand_pi(sp, rng))
        P = projection_dense(g, sp)
        np.testing.assert_allclose(P @ P, P, atol=1e-10)

    @pytest.mark.parametrize("space_idx", range(4))
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_projected_weights_reproduce_function(self, space_idx, eta, rng):
        sp = small_spaces()[space_idx]
        g = GaugeSpec(eta, rand_pi(sp, rng))
        P = projection_dense(g, sp)
        full = [j for j, s in enumerate(sp.enumerate_subsequences()) if s.size == sp.length]
        f = rng.standard_normal(sp.n_sequences)
        np.testing.assert_allclose(sp.phi_dense() @ (P[:, full] @ f), f, atol=1e-10)


class TestPenalty:
    def test_diagonal_hierarchical(self):
        sp = SequenceSpace("ab", 2)
        g = GaugeSpec(1.0, ProductDistribution.uniform(sp))
        sub = Subsequence((1,), (0,))
        assert penalty_entry(g, sub, sub, sp) == pytest.approx(0.25)

    def test_same_positions_single_difference(self):
        sp = SequenceSpace("ab", 2)
        g = GaugeSpec(1.0, ProductDistribution.uniform(sp))
        assert penalty_entry(g, Subsequence((1,), (0,)), Subsequence((1,), (1,)),
                             sp) == pytest.approx(0.25)

    @pytest.mark.parametrize("eta", [0.3, 0.7, 1.0])
    def test_matches_constraint_gram(self, eta, rng):
        sp = SequenceSpace("ab", 2)
        g = GaugeSpec(eta, rand_pi(sp, rng))
        B = b_matrix_dense(g, sp)
        np.testing.assert_allclose(B.T @ B, penalty_dense(g, sp), atol=1e-12)

    def test_trivial_gauge_rejected(self):
        sp = SequenceSpace("ab", 2)
        g = GaugeSpec(0.0, ProductDistribution.uniform(sp))
        with pytest.raises(ParameterError):
            penalty_entry(g, EMPTY_SUBSEQUENCE, EMPTY_SUBSEQUENCE, sp)

    @pytest.mark.parametrize("eta", [0.3, 1.0])
    def test_nullspace_agrees_with_marginalization(self, eta, rng):
        sp = SequenceSpace("ab", 2)
        g = GaugeSpec(eta, rand_pi(sp, rng))
        Z = penalty_dense(g, sp)
        P = projection_dense(g, sp)
        # basis of the gauge: annihilated by Z and zero residual
        for _ in range(5):
            v = P @ rng.standard_normal(sp.n_subsequences)
            assert np.abs(Z @ v).max() < 1e-10
            assert marginalization_residual(v, g, sp) < 1e-10
        # complement: neither annihilated nor residual-free
        for _ in range(5):
            w = rng.standard_normal(sp.n_subsequences)
            w -= P @ w
            if np.abs(w).max() < 1e-8:
                continue
            assert np.abs(Z @ w).max() > 1e-10
            assert marginalization_residual(w, g, sp) > 1e-10


class TestBMatrixRow:
    def test_hierarchical_base_entry_vanishes(self):
        sp = SequenceSpace("ab", 2)
        g = GaugeSpec(1.0, ProductDistribution.uniform(sp))
        idx, vals = b_matrix_row(g, EMPTY_SUBSEQUENCE, 1, sp)
        base = vals[list(idx).index(sp.subsequence_index(EMPTY_SUBSEQUENCE))]
        assert base == 0.0

    def test_uniform_entries(self):
        sp = SequenceSpace("ab", 2)
        g = GaugeSpec(0.5, ProductDistribution.uniform(sp))
        idx, vals = b_matrix_row(g, EMPTY_SUBSEQUENCE, 1, sp)
        assert sorted(vals) == pytest.approx([-1.0, 0.5, 0.5])

    def test_annihilates_gauge_vectors(self, rng):
        sp = SequenceSpace("ab", 2)
        g = GaugeSpec(0.4, rand_pi(sp, rng))
        P = projection_dense(g, sp)
        w = P @ rng.standard_normal(sp.n_subsequences)
        for sub in sp.enumerate_subsequences():
            for p in range(1, sp.length + 1):
                if p in sub.positions:
                    continue
                idx, vals = b_matrix_row(g, sub, p, sp)
                assert abs(vals @ w[idx]) < 1e-12

    def test_position_already_present(self):
        sp = SequenceSpace("ab", 2)
        g = GaugeSpec(1.0, ProductDistribution.uniform(sp))
        with pytest.raises(ParameterError):
            b_matrix_row(g, Subsequence((1,), (0,)), 1, sp)

    @pytest.mark.parametrize("alphabet,length", [("ab", 2), ("ab", 3), ("abc", 2)])
    def test_dense_shape(self, alphabet, length, rng):
        sp = SequenceSpace(alphabet, length)
        g = GaugeSpec(0.5, rand_pi(sp, rng))
        B = b_matrix_dense(g, sp)
        assert B.shape == (length * (sp.alpha + 1) ** (length - 1), sp.n_subsequences)


class TestMarginalizationResidual:
    def test_zero_weights(self):
        sp = SequenceSpace("ab", 2)
        g = GaugeSpec(0.5, ProductDistribution.uniform(sp))
        assert marginalization_residual(np.zeros(9), g, sp) == 0.0

    @pytest.mark.parametrize("space_idx", range(4))
    def test_projected_vectors_pass(self, space_idx, rng):
        sp = small_spaces()[space_idx]
        g = GaugeSpec(float(rng.uniform(0.2, 1.0)), rand_pi(sp, rng))
        P = projection_dense(g, sp)
        v = P @ rng.standard_normal(sp.n_subsequences)
        assert marginalization_residual(v, g, sp) <= 1e-10

    def test_unit_empty_weight(self):
        sp = SequenceSpace("ab", 2)
        eta = 0.4
        g = GaugeSpec(eta, ProductDistribution.uniform(sp))
        w = np.zeros(sp.n_subsequences)
        w[sp.subsequence_index(EMPTY_SUBSEQUENCE)] = 1.0
        assert marginalization_residual(w, g, sp) == pytest.approx((1 - eta) / eta)


class TestTransformRows:
    def test_zero_sum_ell1(self):
        sp = SequenceSpace("ab", 1)
        t = transform_rows("zero-sum", sp, sp.subsequences())
        M = t.dense_matrix(sp)
        np.testing.assert_allclose(M[0], [0.5, 0.5])   # empty subsequence
        np.testing.assert_allclose(M[1], [0.5, -0.5])  # ({1}, a)
        f = np.array([1.3, -0.7])
        assert (M @ f)[0] == pytest.approx(f.mean())

    def test_walsh_hadamard_ell1_orthonormal(self):
        sp = SequenceSpace("ab", 1)
        t = transform_rows("walsh-hadamard", sp, [(), (1,)])
        M = t.dense_matrix(sp)
        np.testing.assert_allclose(M[0], [1 / math.sqrt(2)] * 2)
        np.testing.assert_allclose(M[1], [1 / math.sqrt(2), -1 / math.sqrt(2)])
        np.testing.assert_allclose(M @ M.T, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("alphabet", ["ab", "abc"])
    def test_fourier_orthonormal(self, alphabet):
        sp = SequenceSpace(alphabet, 2)
        keys = all_transform_keys("fourier", sp)
        M = transform_rows("fourier", sp, keys).dense_matrix(sp)
        assert M.shape == (sp.n_sequences, sp.n_sequences)
        np.testing.assert_allclose(M @ M.T, np.eye(sp.n_sequences), atol=1e-12)

    def test_wild_type_empty_row_reads_reference(self):
        sp = SequenceSpace("ab", 3)
        t = transform_rows("wild-type", sp, [EMPTY_SUBSEQUENCE], reference="aba")
        M = t.dense_matrix(sp)
        f = np.arange(8.0)
        assert (M @ f)[0] == f[sp.sequence_index("aba")]

    def test_gauge_weights_match_projection_columns(self, rng):
        for sp in small_spaces():
            g = GaugeSpec(float(rng.uniform(0.2, 1.0)), rand_pi(sp, rng))
            M = transform_rows("gauge-weights", sp, sp.subsequences(), gauge=g).dense_matrix(sp)
            P = projection_dense(g, sp)
            full = [j for j, s in enumerate(sp.enumerate_subsequences()) if s.size == sp.length]
            np.testing.assert_allclose(M, P[:, full], atol=1e-12)

    def test_wild_type_agrees_with_point_mass_gauge(self, rng):
        sp = SequenceSpace("abc", 2)
        ref = "bc"
        keys = [s for s in sp.subsequences()
                if all(c != sp.encode_sequence(ref)[p - 1]
                       for p, c in zip(s.positions, s.chars))]
        wt = transform_rows("wild-type", sp, keys, reference=ref).dense_matrix(sp)
        pm = transform_rows("gauge-weights", sp, keys,
                            gauge=GaugeSpec(1.0, ProductDistribution.point_mass(sp, ref))
                            ).dense_matrix(sp)
        np.testing.assert_allclose(wt, pm, atol=1e-14)

    def test_reference_agreement_rejected(self):
        sp = SequenceSpace("ab", 2)
        agrees = Subsequence((1,), (0,))
        for kind in ("wild-type", "background-averaged"):
            with pytest.raises(InvalidIndexError, match="reference"):
                transform_rows(kind, sp, [agrees], reference="aa")

    def test_fourier_reference_allele_zero(self):
        sp = SequenceSpace("ab", 2)
        with pytest.raises(InvalidIndexError):
            transform_rows("fourier", sp, [Subsequence((1,), (0,))])

    def test_unknown_kind(self):
        sp = SequenceSpace("ab", 1)
        with pytest.raises(ParameterError, match="unknown transform kind"):
            transform_rows("anova", sp, [])

    def test_walsh_hadamard_needs_biallelic(self):
        sp = SequenceSpace("abc", 2)
        with pytest.raises(ParameterError):
            transform_rows("walsh-hadamard", sp, [()])

    def test_gauge_and_reference_usage_is_strict(self):
        sp = SequenceSpace("ab", 1)
        g = GaugeSpec(1.0, ProductDistribution.uniform(sp))
        with pytest.raises(ParameterError):
            transform_rows("gauge-weights", sp, sp.subsequences())  # gauge missing
        with pytest.raises(ParameterError):
            transform_rows("zero-sum", sp, sp.subsequences(), gauge=g)
        with pytest.raises(ParameterError):
            transform_rows("zero-sum", sp, sp.subsequences(), reference="a")
        with pytest.raises(ParameterError):
            transform_rows("wild-type", sp, [EMPTY_SUBSEQUENCE])  # reference missing


def textbook_entry(kind, space, key, x, gauge, ref) -> float:
    """One row of a kind at one sequence, written out position by position."""
    alpha, root = space.alpha, math.sqrt(space.alpha)
    if kind == "walsh-hadamard":
        signs = [1.0 if x[p - 1] == ref[p - 1] else -1.0 for p in key]
        return math.prod(signs) * alpha ** (-space.length / 2)
    if kind == "zero-sum":
        eta, pi = 1.0, np.full((space.length, alpha), 1.0 / alpha)
    elif kind in ("gauge-weights", "hierarchical"):
        eta = gauge.eta if kind == "gauge-weights" else 1.0
        pi = gauge.pi.probs
    fixed = dict(zip(key.positions, key.chars))
    value = 1.0
    for p in range(1, space.length + 1):
        xp, r = x[p - 1], ref[p - 1] if ref is not None else None
        if p in fixed:
            c = fixed[p]
            if kind in ("gauge-weights", "hierarchical", "zero-sum"):
                value *= (xp == c) - eta * pi[p - 1, xp]
            elif kind in ("wild-type", "background-averaged"):
                value *= (xp == c) - (xp == r)
            else:  # fourier
                value *= ((xp == r) + root * (xp == c) - (xp != r) / (root - 1.0)) / root
        elif kind in ("gauge-weights", "hierarchical", "zero-sum"):
            value *= eta * pi[p - 1, xp]
        elif kind == "wild-type":
            value *= float(xp == r)
        else:
            value /= alpha if kind == "background-averaged" else root
    return value


def loop_factors(kind, space, keys, gauge, ref) -> np.ndarray:
    """Factor tables built key by key and position by position, with the same arithmetic."""
    ell, alpha, root = space.length, space.alpha, math.sqrt(space.alpha)
    if kind in ("gauge-weights", "hierarchical", "zero-sum"):
        eta = gauge.eta if kind == "gauge-weights" else 1.0
        pi = (ProductDistribution.uniform(space) if kind == "zero-sum" else gauge.pi).probs
    out = []
    for key in keys:
        table = np.empty((ell, alpha))
        for p in range(ell):
            if kind in ("gauge-weights", "hierarchical", "zero-sum"):
                table[p] = pi[p] * eta
            elif kind == "wild-type":
                table[p] = 0.0
                table[p, ref[p]] = 1.0
            else:
                table[p] = 1.0 / alpha if kind == "background-averaged" else 1.0 / root
        if kind == "walsh-hadamard":
            fixed = [(p, 0) for p in key]
        else:
            fixed = zip(key.positions, key.chars)
        for p, c in fixed:
            r = ref[p - 1] if ref is not None else None
            if kind in ("gauge-weights", "hierarchical", "zero-sum"):
                row = -(pi[p - 1] * eta)
                row[c] += 1.0
            elif kind in ("wild-type", "background-averaged"):
                row = np.zeros(alpha)
                row[c] += 1.0
                row[r] -= 1.0
            elif kind == "fourier":
                row = np.full(alpha, -1.0 / (root - 1.0))
                row[r] = 1.0
                row[c] += root
                row = row / root
            else:
                row = np.full(alpha, -1.0 / root)
                row[r] = 1.0 / root
            table[p - 1] = row
        out.append(table)
    return np.asarray(out).reshape(len(keys), ell, alpha)


class TestKindRules:
    def test_every_kind_has_rules(self):
        assert set(TRANSFORM_KINDS) == set(KIND_RULES)
        for kind in TRANSFORM_KINDS:
            rules = kind_rules(kind)
            assert rules.reference in ("required", "optional", "refused")
            assert not (rules.gauge and rules.reference != "refused")

    def test_unknown_kind_named_in_error(self):
        with pytest.raises(ParameterError, match="unknown transform kind 'anova'"):
            kind_rules("anova")
        with pytest.raises(ParameterError, match="unknown transform kind"):
            all_transform_keys("anova", SequenceSpace("ab", 1))

    @pytest.mark.parametrize("kind", TRANSFORM_KINDS)
    def test_transform_rows_follow_the_rules(self, kind):
        sp = SequenceSpace("ab", 2)
        rules = KIND_RULES[kind]
        g = GaugeSpec(0.5, ProductDistribution.uniform(sp))
        keys = [()] if rules.by_positions else [EMPTY_SUBSEQUENCE]
        gauge = g if rules.gauge else None
        reference = "aa" if rules.reference == "required" else None
        transform_rows(kind, sp, keys, gauge=gauge, reference=reference)
        with pytest.raises(ParameterError, match="(?i)gauge"):
            transform_rows(kind, sp, keys, gauge=None if rules.gauge else g,
                           reference=reference)
        if rules.reference == "refused":
            with pytest.raises(ParameterError, match="takes no reference"):
                transform_rows(kind, sp, keys, gauge=gauge, reference="aa")
        elif rules.reference == "required":
            with pytest.raises(ParameterError, match="requires a reference"):
                transform_rows(kind, sp, keys)
        if rules.binary:
            with pytest.raises(ParameterError, match="two-character"):
                transform_rows(kind, SequenceSpace("abc", 2), keys, reference=reference)
        if rules.off_reference:
            with pytest.raises(InvalidIndexError, match="off the reference"):
                transform_rows(kind, sp, [Subsequence((2,), (0,))], reference="aa")

    @pytest.mark.parametrize("kind", TRANSFORM_KINDS)
    def test_all_keys_choose_alpha_or_alpha_minus_one_characters(self, kind):
        sp = SequenceSpace("ab" if KIND_RULES[kind].binary else "abc", 2)
        reference = "ba" if KIND_RULES[kind].reference == "required" else None
        rules = KIND_RULES[kind]
        per_position = 1 if rules.by_positions else sp.alpha - rules.off_reference
        assert len(all_transform_keys(kind, sp, reference)) == (1 + per_position) ** sp.length


class TestTransformRowsTextbook:
    @pytest.mark.parametrize("kind,alphabet,length", [
        (kind, alphabet, length) for kind in TRANSFORM_KINDS
        for alphabet, length in (("ab", 3), ("abc", 2), ("ACGT", 3))
        if len(alphabet) == 2 or not KIND_RULES[kind].binary])
    def test_dense_matrix_matches_definition(self, kind, alphabet, length, rng):
        sp = SequenceSpace(alphabet, length)
        rules = KIND_RULES[kind]
        gauge = rand_gauge(sp, rng) if rules.gauge else None
        given = "".join(alphabet[(3 * p + 1) % sp.alpha] for p in range(length))
        reference = None if rules.reference == "refused" else given
        ref = sp.encode_sequence(given) if reference is not None else None
        keys = all_transform_keys(kind, sp, reference)
        M = transform_rows(kind, sp, keys, gauge=gauge, reference=reference).dense_matrix(sp)
        want = np.array([[textbook_entry(kind, sp, key, x, gauge, ref)
                          for x in sp.enumerate_sequences()] for key in keys])
        np.testing.assert_allclose(M, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind,alphabet,length", [
        (kind, alphabet, length) for kind in TRANSFORM_KINDS
        for alphabet, length in (("ab", 3), ("abc", 2), ("ACGT", 3))
        if len(alphabet) == 2 or not KIND_RULES[kind].binary])
    def test_factors_bitwise_equal_to_per_key_loop(self, kind, alphabet, length, rng):
        # the pi and eta of the gauge kinds include a point mass and eta = 0,
        # where the member rows carry -0.0 entries
        sp = SequenceSpace(alphabet, length)
        rules = KIND_RULES[kind]
        given = "".join(alphabet[(2 * p + 1) % sp.alpha] for p in range(length))
        reference = None if rules.reference == "refused" else given
        ref = sp.encode_sequence(given) if reference is not None else None
        if reference is None and rules.reference == "optional":
            ref = (0,) * length
        keys = all_transform_keys(kind, sp, reference)
        gauges = [None]
        if rules.gauge:
            gauges = [rand_gauge(sp, rng), rand_gauge(sp, rng, eta=0.0),
                      GaugeSpec(0.5, ProductDistribution.point_mass(sp, given))]
        for gauge in gauges:
            got = transform_rows(kind, sp, keys, gauge=gauge, reference=reference).factors
            assert got.tobytes() == loop_factors(kind, sp, keys, gauge, ref).tobytes()

    def test_default_references_are_character_zero(self):
        sp = SequenceSpace("ab", 2)
        for kind, keys in (("fourier", [Subsequence((1, 2), (1, 1))]),
                           ("walsh-hadamard", [(1, 2)])):
            default = transform_rows(kind, sp, keys).factors
            assert default.tobytes() == transform_rows(kind, sp, keys, reference="aa"
                                                       ).factors.tobytes()


class TestSignedZeros:
    # gauge-weight member rows carry -0.0 where eta * pi is 0 (a point mass,
    # or eta = 0); adding a whole identity matrix to them, instead of +1 on
    # the diagonal only, would turn those entries into +0.0
    KEYS = ("-", "1:a", "2:b", "1:b;2:a")
    SIGNBIT = [[[0, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 1]]]

    def rows(self, gauge, sp):
        keys = [sp.parse_subsequence(k) for k in self.KEYS]
        return transform_rows("gauge-weights", sp, keys, gauge=gauge).factors

    def test_point_mass_pi(self):
        sp = SequenceSpace("ab", 2)
        factors = self.rows(GaugeSpec.from_lambda(2.0, ProductDistribution.point_mass(sp, "ba")),
                            sp)
        np.testing.assert_array_equal(np.signbit(factors), self.SIGNBIT)
        assert factors[3, 0, 1] == pytest.approx(1.0 / 3.0)

    def test_eta_zero(self):
        sp = SequenceSpace("ab", 2)
        factors = self.rows(GaugeSpec(0.0, ProductDistribution([[0.3, 0.7], [0.5, 0.5]], sp)),
                            sp)
        np.testing.assert_array_equal(np.signbit(factors), self.SIGNBIT)
        np.testing.assert_array_equal(np.abs(factors).sum(axis=2), [[0, 0], [1, 0], [0, 1], [1, 1]])


class TestCallersNameNoKind:
    @pytest.mark.parametrize("module", ["cli.py", "estimators.py"])
    def test_only_the_default_kind_is_named(self, module):
        import ast
        from pathlib import Path

        source = (Path(__file__).resolve().parent.parent / "src" / "seqgp" / module).read_text()
        strings = {node.value for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        assert strings & set(TRANSFORM_KINDS) == {"gauge-weights"}


class TestCoefficientKeys:
    def test_walsh_hadamard_keys(self):
        sp = SequenceSpace("ab", 3)
        assert parse_coefficient_key("walsh-hadamard", "-", sp) == ()
        assert parse_coefficient_key("walsh-hadamard", "3;1", sp) == (1, 3)
        with pytest.raises(ParameterError):
            parse_coefficient_key("walsh-hadamard", "1;1", sp)

    def test_subsequence_keys(self):
        sp = SequenceSpace("abcde", 5)
        assert parse_coefficient_key("zero-sum", "2:b;5:e", sp) == Subsequence((2, 5), (1, 4))

    def test_all_keys_counts(self):
        sp = SequenceSpace("abc", 2)
        assert len(all_transform_keys("zero-sum", sp)) == 16
        assert len(all_transform_keys("fourier", sp)) == 9
        assert len(all_transform_keys("wild-type", sp, reference="aa")) == 9
        sp2 = SequenceSpace("ab", 3)
        assert len(all_transform_keys("walsh-hadamard", sp2)) == 8


class TestGaugeConfig:
    def test_uniform(self):
        sp = SequenceSpace("ab", 2)
        g = gauge_from_config({"lambda": "inf", "pi": "uniform"}, sp)
        assert g.eta == 1.0
        assert g.pi.full_support

    def test_wild_type(self):
        sp = SequenceSpace("ab", 2)
        g = gauge_from_config({"lambda": 2.0, "pi": "wild-type:ab"}, sp)
        assert g.eta == pytest.approx(2 / 3)
        assert g.pi.is_point_mass

    def test_explicit_rows(self):
        sp = SequenceSpace("ab", 2)
        g = gauge_from_config({"lambda": 1, "pi": [[0.25, 0.75], [0.5, 0.5]]}, sp)
        assert g.pi[1][1] == 0.75

    def test_strictness(self):
        sp = SequenceSpace("ab", 2)
        with pytest.raises(ConfigError):
            gauge_from_config({"lambda": 1.0}, sp)
        with pytest.raises(ConfigError):
            gauge_from_config({"lambda": 1.0, "pi": "uniform", "mode": "x"}, sp)
        with pytest.raises(ConfigError):
            gauge_from_config({"lambda": "huge", "pi": "uniform"}, sp)
        with pytest.raises(ConfigError):
            gauge_from_config({"lambda": 1.0, "pi": [[0.5, 0.6], [0.5, 0.5]]}, sp)


class TestProductDistribution:
    def test_row_sum_enforced(self):
        sp = SequenceSpace("ab", 1)
        with pytest.raises(ParameterError):
            ProductDistribution([[0.6, 0.5]], sp)

    def test_nonnegative_enforced(self):
        sp = SequenceSpace("ab", 1)
        with pytest.raises(ParameterError):
            ProductDistribution([[1.2, -0.2]], sp)

    def test_point_mass_flagged(self):
        sp = SequenceSpace("abc", 2)
        pm = ProductDistribution.point_mass(sp, "cb")
        assert pm.is_point_mass and not pm.full_support
        assert pm[1][2] == 1.0
