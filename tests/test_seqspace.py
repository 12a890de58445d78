import numpy as np
import pytest

from seqgp import (
    DimensionError,
    EMPTY_SUBSEQUENCE,
    ParameterError,
    SequenceSpace,
    SizeGuardError,
    Subsequence,
    binomial,
    krawtchouk,
)


class TestHamming:
    def test_identical(self):
        sp = SequenceSpace("ab", 3)
        assert sp.hamming("aab", "aab") == 0

    def test_single_difference(self):
        sp = SequenceSpace("ab", 3)
        assert sp.hamming("aab", "abb") == 1

    def test_all_differ(self):
        sp = SequenceSpace("ab", 3)
        assert sp.hamming("aaa", "bbb") == 3

    def test_symmetry(self):
        sp = SequenceSpace("abc", 3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.integers(0, 3, size=(2, 3))
            assert sp.hamming(x, y) == sp.hamming(y, x)

    def test_length_mismatch(self):
        sp = SequenceSpace("ab", 3)
        with pytest.raises(DimensionError):
            sp.hamming("ab", "aab")


class TestIndicator:
    def test_matching_subsequence(self):
        sp = SequenceSpace("abcde", 5)
        sub = sp.parse_subsequence("2:b;5:e")
        assert sp.indicator("abcde", sub) == 1

    def test_empty_matches_everything(self):
        sp = SequenceSpace("abcde", 5)
        assert sp.indicator("abcde", EMPTY_SUBSEQUENCE) == 1

    def test_mismatch(self):
        sp = SequenceSpace("abcde", 5)
        sub = sp.parse_subsequence("1:b")
        assert sp.indicator("abcde", sub) == 0


class TestPhiDense:
    def test_alpha2_ell1(self):
        sp = SequenceSpace("ab", 1)
        np.testing.assert_array_equal(sp.phi_dense(), [[1, 1, 0], [1, 0, 1]])

    @pytest.mark.parametrize("alphabet,length", [("ab", 1), ("ab", 2), ("ab", 3), ("abc", 2)])
    def test_row_sums(self, alphabet, length):
        sp = SequenceSpace(alphabet, length)
        phi = sp.phi_dense()
        np.testing.assert_array_equal(phi.sum(axis=1), np.full(sp.n_sequences, 2 ** length))

    def test_alpha2_ell2_shape(self):
        sp = SequenceSpace("ab", 2)
        assert sp.phi_dense().shape == (4, 9)

    @pytest.mark.parametrize("alphabet,length", [("ab", 1), ("ab", 2), ("ab", 3),
                                                 ("abc", 1), ("abc", 2), ("abc", 3)])
    def test_full_row_rank(self, alphabet, length):
        sp = SequenceSpace(alphabet, length)
        assert np.linalg.matrix_rank(sp.phi_dense()) == sp.n_sequences

    def test_entries_match_indicator(self):
        sp = SequenceSpace("abc", 2)
        phi = sp.phi_dense()
        subs = sp.subsequences()
        for i, x in enumerate(sp.enumerate_sequences()):
            for j, sub in enumerate(subs):
                assert phi[i, j] == sp.indicator(x, sub)


class TestKrawtchouk:
    def test_order_zero(self):
        for d in range(6):
            assert krawtchouk(0, d, 5, 3) == 1

    def test_direct_evaluation(self):
        assert krawtchouk(1, 1, 3, 2) == 1

    def test_at_distance_zero(self):
        assert krawtchouk(2, 0, 3, 4) == 27  # (alpha-1)^k C(ell, k)

    def test_argument_validation(self):
        with pytest.raises(ParameterError):
            krawtchouk(4, 0, 3, 2)
        with pytest.raises(ParameterError):
            krawtchouk(0, -1, 3, 2)

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_identity_exact(self, alpha):
        # alpha^-j sum_k C(ell-k, j-k) K_k(d) = C(ell-d, j), in exact integers
        for ell in range(1, 9):
            for d in range(ell + 1):
                for j in range(ell - d + 1):
                    lhs = sum(binomial(ell - k, j - k) * krawtchouk(k, d, ell, alpha)
                              for k in range(j + 1))
                    assert lhs == alpha ** j * binomial(ell - d, j)


class TestBinomial:
    def test_basic(self):
        assert binomial(5, 2) == 10

    def test_k_larger_than_n(self):
        assert binomial(3, 5) == 0

    def test_zero_zero(self):
        assert binomial(0, 0) == 1

    def test_negative(self):
        with pytest.raises(ParameterError):
            binomial(-1, 0)


class TestEnumeration:
    def test_counts_alpha2(self):
        sp = SequenceSpace("ab", 2)
        assert len(list(sp.enumerate_sequences())) == 4
        assert len(list(sp.enumerate_subsequences())) == 9

    def test_counts_alpha3(self):
        sp = SequenceSpace("abc", 2)
        assert len(list(sp.enumerate_sequences())) == 9
        assert len(list(sp.enumerate_subsequences())) == 16

    def test_first_subsequence_is_empty(self):
        sp = SequenceSpace("abc", 3)
        assert next(sp.enumerate_subsequences()) == EMPTY_SUBSEQUENCE

    def test_column_count_partition(self):
        # sum over position sets of alpha^|S| equals (alpha+1)^ell
        for alpha in (2, 3):
            for ell in range(1, 11):
                total = sum(alpha ** bin(mask).count("1") for mask in range(2 ** ell))
                assert total == (alpha + 1) ** ell

    def test_index_roundtrip(self):
        sp = SequenceSpace("abc", 3)
        for i, x in enumerate(sp.enumerate_sequences()):
            assert sp.sequence_index(x) == i
            assert sp.sequence_at(i) == x
        for j, sub in enumerate(sp.enumerate_subsequences()):
            assert sp.subsequence_index(sub) == j
            assert sp.subsequence_at(j) == sub


class TestSizeGuard:
    def test_enumeration_refuses_past_cap(self):
        sp = SequenceSpace("ab", 25)
        with pytest.raises(SizeGuardError):
            sp.sequences_array()
        with pytest.raises(SizeGuardError):
            sp.phi_dense()

    def test_cap_is_configurable(self):
        sp = SequenceSpace("ab", 3, dense_cap=4)
        with pytest.raises(SizeGuardError):
            list(sp.enumerate_sequences())
        roomy = SequenceSpace("ab", 3, dense_cap=10 ** 6)
        assert len(list(roomy.enumerate_sequences())) == 8

    def test_huge_length_refused_at_once(self):
        # an exact (alpha+1)**ell would never finish for a length this large
        with pytest.raises(SizeGuardError, match="index range"):
            SequenceSpace("ab", 10 ** 400)

    def test_sequence_indices_match_enumeration(self):
        sp = SequenceSpace("abc", 3)
        X = sp.sequences_array()
        np.testing.assert_array_equal(sp.sequence_indices(X), np.arange(sp.n_sequences))
        assert sp.sequence_indices(X[[5, 2]]).tolist() == [5, 2]

    def test_closed_forms_unaffected(self):
        # entrywise work never touches the guard
        sp = SequenceSpace("ab", 25)
        assert sp.hamming("a" * 25, "b" * 25) == 25


class TestConstruction:
    def test_alphabet_too_small(self):
        with pytest.raises(ParameterError):
            SequenceSpace("a", 2)

    def test_duplicate_symbols(self):
        with pytest.raises(ParameterError):
            SequenceSpace("aba", 2)

    def test_bad_length(self):
        with pytest.raises(ParameterError):
            SequenceSpace("ab", 0)


class TestTextForms:
    def test_subsequence_roundtrip(self):
        sp = SequenceSpace("abcde", 5)
        for text in ("-", "2:b;5:e", "1:a", "1:a;3:c;5:e"):
            assert sp.format_subsequence(sp.parse_subsequence(text)) == text

    def test_parse_canonicalizes_order(self):
        sp = SequenceSpace("abcde", 5)
        assert sp.format_subsequence(sp.parse_subsequence("5:b;2:e")) == "2:e;5:b"

    def test_parse_rejects_duplicates(self):
        sp = SequenceSpace("ab", 3)
        with pytest.raises(ParameterError):
            sp.parse_subsequence("2:a;2:b")

    def test_parse_rejects_bad_position(self):
        sp = SequenceSpace("ab", 3)
        with pytest.raises(ParameterError):
            sp.parse_subsequence("4:a")

    def test_parse_rejects_unknown_character(self):
        sp = SequenceSpace("ab", 3)
        with pytest.raises(ParameterError):
            sp.parse_subsequence("1:z")


class TestSubsequenceType:
    def test_positions_must_increase(self):
        with pytest.raises(ParameterError):
            Subsequence((2, 1), (0, 0))

    def test_char_count_must_match(self):
        with pytest.raises(DimensionError):
            Subsequence((1, 2), (0,))

    def test_extend(self):
        sub = Subsequence((2,), (1,))
        assert sub.extend(1, 0) == Subsequence((1, 2), (0, 1))
        with pytest.raises(ParameterError):
            sub.extend(2, 0)
