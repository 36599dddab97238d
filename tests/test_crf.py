"""CRF scoring, log-partition, Viterbi, and NLL gradients vs brute force."""

import numpy as np
import pytest

from judou.crf import (N_TAGS, NEG_INF, START, STOP, CrfParams, crf_nll,
                       log_partition, new_transitions, path_score, viterbi_decode)
from judou.nncore import Param, grad_check, make_rng
from oracles import (all_paths, log_partition_reverse, oracle_log_partition,
                     oracle_marginals, oracle_path_score, oracle_viterbi, random_crf)


def zero_crf():
    return CrfParams(trans=new_transitions())


class TestNewTransitions:
    def test_impossible_cells(self):
        a = new_transitions().value
        assert np.all(a[:, START] == NEG_INF)
        assert np.all(a[STOP, :] == NEG_INF)
        assert a[0, 1] == 0.0


class TestPathScore:
    def test_single_emission(self):
        P = np.array([[1.0, 2.0, 3.0]])
        assert path_score(P, zero_crf(), [2]) == 3.0

    def test_zero_transitions_sum_emissions(self):
        rng = make_rng(0)
        P = rng.normal(size=(4, 3))
        y = [0, 2, 2, 1]
        assert path_score(P, zero_crf(), y) == pytest.approx(sum(P[i, t] for i, t in enumerate(y)))

    def test_twenty_random_paths_match_oracle(self):
        rng = make_rng(1)
        P = rng.normal(size=(5, 3))
        crf = random_crf(rng)
        for _ in range(20):
            y = rng.integers(0, 3, size=5)
            assert path_score(P, crf, y) == pytest.approx(
                oracle_path_score(P, crf.A, tuple(y)), abs=1e-10)

    def test_rejects_bad_paths(self):
        P = np.zeros((2, 3))
        with pytest.raises(ValueError):
            path_score(P, zero_crf(), [0])
        with pytest.raises(IndexError):
            path_score(P, zero_crf(), [0, 3])
        with pytest.raises(ValueError):
            path_score(P, zero_crf(), [])


class TestLogPartition:
    def test_uniform_single_position(self):
        assert log_partition(np.zeros((1, 3)), zero_crf()) == pytest.approx(np.log(3.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_enumeration(self, n):
        rng = make_rng(n)
        P = rng.normal(size=(n, 3))
        crf = random_crf(rng)
        assert log_partition(P, crf) == pytest.approx(
            oracle_log_partition(P, crf.A), abs=1e-8)

    def test_row_shift_identity(self):
        rng = make_rng(2)
        P = rng.normal(size=(4, 3))
        crf = random_crf(rng)
        base = log_partition(P, crf)
        shifted = P.copy()
        shifted[2] += 1.75
        assert log_partition(shifted, crf) == pytest.approx(base + 1.75, abs=1e-9)

    def test_forward_and_reverse_agree(self):
        rng = make_rng(3)
        for _ in range(10):
            P = rng.normal(size=(rng.integers(1, 8), 3))
            crf = random_crf(rng)
            assert log_partition(P, crf) == pytest.approx(
                log_partition_reverse(P, crf), abs=1e-10)

    def test_dominates_every_path_score(self):
        rng = make_rng(4)
        P = rng.normal(size=(4, 3))
        crf = random_crf(rng)
        z = log_partition(P, crf)
        for y in all_paths(4):
            assert z >= oracle_path_score(P, crf.A, y)

    def test_path_probabilities_sum_to_one(self):
        rng = make_rng(5)
        for n in (1, 3, 6):
            P = rng.normal(size=(n, 3))
            crf = random_crf(rng)
            z = log_partition(P, crf)
            total = sum(np.exp(oracle_path_score(P, crf.A, y) - z) for y in all_paths(n))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestViterbi:
    def test_zero_transitions_reduce_to_argmax(self):
        P = np.array([[0.1, 0.9, 0.2], [0.8, 0.1, 0.3], [0.1, 0.2, 0.9]])
        path = viterbi_decode(P, zero_crf())
        assert list(path.tags) == [1, 0, 2]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_exhaustive_argmax(self, n):
        rng = make_rng(10 + n)
        for _ in range(10):
            P = rng.normal(size=(n, 3))
            crf = random_crf(rng)
            assert tuple(viterbi_decode(P, crf).tags) == oracle_viterbi(P, crf.A)

    def test_score_is_path_score_of_decoded(self):
        rng = make_rng(6)
        P = rng.normal(size=(5, 3))
        crf = random_crf(rng)
        path = viterbi_decode(P, crf)
        assert path.score == pytest.approx(path_score(P, crf, path.tags), abs=1e-10)

    def test_all_ties_pick_lowest_tags(self):
        # every path scores 0: the tie rule gives all tags index 0
        path = viterbi_decode(np.zeros((4, 3)), zero_crf())
        assert list(path.tags) == [0, 0, 0, 0]

    def test_integer_ties_match_oracle_rule(self):
        rng = make_rng(7)
        for _ in range(30):
            # half-integer scores collide often, exercising the tie rule
            P = rng.integers(0, 2, size=(4, 3)) / 2.0
            crf = zero_crf()
            crf.trans.value[:N_TAGS, :N_TAGS] = rng.integers(0, 2, size=(3, 3)) / 2.0
            assert tuple(viterbi_decode(P, crf).tags) == oracle_viterbi(P, crf.A)

    def test_shift_invariance(self):
        rng = make_rng(8)
        P = rng.normal(size=(5, 3))
        crf = random_crf(rng)
        a = viterbi_decode(P, crf).tags
        b = viterbi_decode(P + 3.25, crf).tags
        assert np.array_equal(a, b)

    def test_forbidden_bigram_never_decoded(self):
        # strong E emissions at even positions, O at odd, but E->O is blocked
        crf = zero_crf()
        crf.trans.value[1, 2] = NEG_INF
        P = np.zeros((6, 3))
        P[::2, 1] = 5.0
        P[1::2, 2] = 5.0
        tags = "".join("BEO"[t] for t in viterbi_decode(P, crf).tags)
        assert "EO" not in tags


class TestCrfNll:
    def test_loss_is_z_minus_gold_score(self):
        rng = make_rng(9)
        P = rng.normal(size=(4, 3))
        crf = random_crf(rng)
        gold = np.array([0, 2, 1, 1])
        loss, _, _ = crf_nll(P, crf, gold)
        assert loss == pytest.approx(log_partition(P, crf) - path_score(P, crf, gold), abs=1e-10)
        assert loss >= 0.0

    def test_uniform_two_positions(self):
        loss, _, _ = crf_nll(np.zeros((2, 3)), zero_crf(), [0, 1])
        assert loss == pytest.approx(np.log(9.0), abs=1e-10)

    def test_peaked_emissions_near_zero_loss(self):
        gold = np.array([0, 2, 1])
        P = np.full((3, 3), -1e4)
        P[np.arange(3), gold] = 1e4
        loss, _, _ = crf_nll(P, zero_crf(), gold)
        assert 0.0 <= loss < 1e-3

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gradients_match_enumeration(self, n):
        rng = make_rng(20 + n)
        P = rng.normal(size=(n, 3))
        crf = random_crf(rng)
        gold = rng.integers(0, 3, size=n)
        _, dP, dA = crf_nll(P, crf, gold)
        marg, trans = oracle_marginals(P, crf.A)
        onehot = np.zeros_like(P)
        onehot[np.arange(n), gold] = 1.0
        observed = np.zeros_like(dA)
        observed[START, gold[0]] += 1.0
        for t in range(n - 1):
            observed[gold[t], gold[t + 1]] += 1.0
        observed[gold[-1], STOP] += 1.0
        np.testing.assert_allclose(dP, marg - onehot, atol=1e-10)
        np.testing.assert_allclose(dA, trans - observed, atol=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = make_rng(30)
        p_P = Param.of(rng.normal(size=(5, 3)), "P")
        crf = random_crf(rng)
        gold = rng.integers(0, 3, size=5)
        loss, dP, dA = crf_nll(p_P.value, crf, gold)
        p_P.grad += dP
        crf.trans.grad += dA
        err = grad_check(lambda: crf_nll(p_P.value, crf, gold)[0], [p_P, crf.trans])
        assert err < 1e-4

    def test_impossible_cells_get_no_gradient(self):
        rng = make_rng(31)
        P = rng.normal(size=(4, 3))
        crf = random_crf(rng)
        _, _, dA = crf_nll(P, crf, rng.integers(0, 3, size=4))
        assert np.all(dA[:, START] == 0.0)
        assert np.all(dA[STOP, :] == 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crf_nll(np.zeros((3, 3)), zero_crf(), [0, 1])
