"""CRF scoring, log-partition, Viterbi, and NLL gradients vs brute force, on
batches of emissions (B, n, 3): every row is checked on its own."""

import numpy as np
import pytest

from judou.crf import (N_TAGS, NEG_INF, START, STOP, crf_nll, log_partition,
                       new_transitions, path_score, viterbi_decode)
from judou.nncore import make_rng
from oracles import (all_paths, grad_check, log_partition_reverse, oracle_gradients,
                     oracle_log_partition, oracle_path_score, oracle_viterbi, random_crf,
                     stepwise_viterbi)


def zero_crf():
    return new_transitions()


def half_integer_crf(rng):
    """Interior transitions in {0, 0.5}: with half-integer emissions, path
    scores collide often, which exercises the tie rule."""
    crf = zero_crf()
    crf[:N_TAGS, :N_TAGS] = rng.integers(0, 2, size=(N_TAGS, N_TAGS)) / 2.0
    return crf


class TestNewTransitions:
    def test_impossible_cells(self):
        a = new_transitions()
        assert np.all(a[:, START] == NEG_INF)
        assert np.all(a[STOP, :] == NEG_INF)
        assert a[0, 1] == 0.0


class TestPathScore:
    def test_single_emission(self):
        P = np.array([[[1.0, 2.0, 3.0]]])
        assert path_score(P, zero_crf(), [[2]]).tolist() == [3.0]

    def test_zero_transitions_sum_emissions(self):
        rng = make_rng(0)
        P = rng.normal(size=(1, 4, 3))
        y = [0, 2, 2, 1]
        assert path_score(P, zero_crf(), [y])[0] == pytest.approx(
            sum(P[0, i, t] for i, t in enumerate(y)))

    def test_twenty_random_paths_match_oracle(self):
        rng = make_rng(1)
        P = rng.normal(size=(20, 5, 3))
        crf = random_crf(rng)
        y = rng.integers(0, 3, size=(20, 5))
        expected = [oracle_path_score(p, crf, tuple(row)) for p, row in zip(P, y)]
        np.testing.assert_allclose(path_score(P, crf, y), expected, rtol=0, atol=1e-10)

    def test_rejects_bad_paths(self):
        P = np.zeros((1, 2, 3))
        with pytest.raises(ValueError):
            path_score(P, zero_crf(), [[0]])
        with pytest.raises(IndexError):
            path_score(P, zero_crf(), [[0, 3]])
        with pytest.raises(ValueError):
            path_score(P, zero_crf(), [[]])
        with pytest.raises(ValueError):
            path_score(P, zero_crf(), [0, 1])  # no batch axis
        with pytest.raises(ValueError):
            path_score(np.zeros((2, 2, 3)), zero_crf(), [[0, 1]])
        with pytest.raises(ValueError):
            path_score(np.zeros((1, 0, 3)), zero_crf(), np.zeros((1, 0)))


class TestLogPartition:
    def test_uniform_single_position(self):
        assert log_partition(np.zeros((1, 1, 3)), zero_crf())[0] == pytest.approx(np.log(3.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_enumeration(self, n):
        rng = make_rng(n)
        P = rng.normal(size=(1, n, 3))
        crf = random_crf(rng)
        assert log_partition(P, crf)[0] == pytest.approx(
            oracle_log_partition(P[0], crf), abs=1e-8)

    def test_row_shift_identity(self):
        rng = make_rng(2)
        P = rng.normal(size=(3, 4, 3))
        crf = random_crf(rng)
        base = log_partition(P, crf)
        shifted = P.copy()
        shifted[1, 2] += 1.75  # one position of one row
        np.testing.assert_allclose(log_partition(shifted, crf) - base, [0.0, 1.75, 0.0],
                                   rtol=0, atol=1e-9)

    def test_forward_and_reverse_agree(self):
        rng = make_rng(3)
        for _ in range(10):
            P = rng.normal(size=(rng.integers(1, 4), rng.integers(1, 8), 3))
            crf = random_crf(rng)
            np.testing.assert_allclose(log_partition(P, crf),
                                       log_partition_reverse(P, crf), rtol=0, atol=1e-10)

    def test_dominates_every_path_score(self):
        rng = make_rng(4)
        P = rng.normal(size=(1, 4, 3))
        crf = random_crf(rng)
        z = log_partition(P, crf)[0]
        for y in all_paths(4):
            assert z >= oracle_path_score(P[0], crf, y)

    def test_path_probabilities_sum_to_one(self):
        rng = make_rng(5)
        for n in (1, 3, 6):
            P = rng.normal(size=(1, n, 3))
            crf = random_crf(rng)
            z = log_partition(P, crf)[0]
            total = sum(np.exp(oracle_path_score(P[0], crf, y) - z) for y in all_paths(n))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestViterbi:
    def test_zero_transitions_reduce_to_argmax(self):
        P = np.array([[[0.1, 0.9, 0.2], [0.8, 0.1, 0.3], [0.1, 0.2, 0.9]]])
        assert viterbi_decode(P, zero_crf()).tolist() == [[1, 0, 2]]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_exhaustive_argmax(self, n):
        rng = make_rng(10 + n)
        for _ in range(10):
            P = rng.normal(size=(1, n, 3))
            crf = random_crf(rng)
            assert tuple(viterbi_decode(P, crf)[0]) == oracle_viterbi(P[0], crf)

    def test_all_ties_pick_lowest_tags(self):
        # every path scores 0: the tie rule gives all tags index 0
        assert viterbi_decode(np.zeros((2, 4, 3)), zero_crf()).tolist() == [[0] * 4] * 2

    def test_integer_ties_match_oracle_rule(self):
        rng = make_rng(7)
        for _ in range(30):
            # half-integer scores collide often, exercising the tie rule
            P = rng.integers(0, 2, size=(1, 4, 3)) / 2.0
            crf = half_integer_crf(rng)
            assert tuple(viterbi_decode(P, crf)[0]) == oracle_viterbi(P[0], crf)

    def test_shift_invariance(self):
        rng = make_rng(8)
        P = rng.normal(size=(3, 5, 3))
        crf = random_crf(rng)
        assert np.array_equal(viterbi_decode(P, crf), viterbi_decode(P + 3.25, crf))

    def test_forbidden_bigram_never_decoded(self):
        # strong E emissions at even positions, O at odd, but E->O is blocked
        crf = zero_crf()
        crf[1, 2] = NEG_INF
        P = np.zeros((1, 6, 3))
        P[0, ::2, 1] = 5.0
        P[0, 1::2, 2] = 5.0
        tags = "".join("BEO"[t] for t in viterbi_decode(P, crf)[0])
        assert "EO" not in tags


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 65, 100, 120])
@pytest.mark.parametrize("batch", [1, 2, 25, 50, 60])
def test_viterbi_gives_the_stepwise_paths(batch, n, dtype):
    # past the lengths enumeration reaches: random rows, then half-integer
    # rows under a half-integer CRF, whose long paths tie often
    rng = make_rng(1000 * batch + n)
    for P, crf in ((rng.normal(scale=2.0, size=(batch, n, 3)), random_crf(rng)),
                   (rng.integers(0, 2, size=(batch, n, 3)) / 2.0, half_integer_crf(rng))):
        P = P.astype(dtype)
        assert np.array_equal(viterbi_decode(P, crf), stepwise_viterbi(P, crf))


class TestCrfNll:
    def test_loss_is_z_minus_gold_score(self):
        rng = make_rng(9)
        P = rng.normal(size=(2, 4, 3))
        crf = random_crf(rng)
        gold = np.array([[0, 2, 1, 1], [1, 1, 0, 2]])
        loss, _, _ = crf_nll(P, crf, gold)
        assert loss.shape == (2,)
        np.testing.assert_allclose(
            loss, log_partition(P, crf) - path_score(P, crf, gold), rtol=0, atol=1e-10)
        assert np.all(loss >= 0.0)

    def test_uniform_two_positions(self):
        loss, _, _ = crf_nll(np.zeros((1, 2, 3)), zero_crf(), [[0, 1]])
        assert loss[0] == pytest.approx(np.log(9.0), abs=1e-10)

    def test_peaked_emissions_near_zero_loss(self):
        gold = np.array([0, 2, 1])
        P = np.full((1, 3, 3), -1e4)
        P[0, np.arange(3), gold] = 1e4
        loss, _, _ = crf_nll(P, zero_crf(), gold[None])
        assert 0.0 <= loss[0] < 1e-3

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gradients_match_enumeration(self, n):
        rng = make_rng(20 + n)
        P = rng.normal(size=(1, n, 3))
        crf = random_crf(rng)
        gold = rng.integers(0, 3, size=(1, n))
        _, dP, dA = crf_nll(P, crf, gold)
        expected_dP, expected_dA = oracle_gradients(P[0], crf, gold[0])
        np.testing.assert_allclose(dP[0], expected_dP, atol=1e-10)
        np.testing.assert_allclose(dA, expected_dA, atol=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = make_rng(30)
        P = rng.normal(size=(3, 5, 3))
        crf = random_crf(rng)
        gold = rng.integers(0, 3, size=(3, 5))
        loss, dP, dA = crf_nll(P, crf, gold)
        # the rows' losses summed: dP is per row, dA the sum over rows
        err = grad_check(lambda: crf_nll(P, crf, gold)[0].sum(),
                         {"P": P, "crf.trans": crf}, {"P": dP, "crf.trans": dA})
        assert err < 1e-4

    def test_impossible_cells_get_no_gradient(self):
        rng = make_rng(31)
        P = rng.normal(size=(3, 4, 3))
        crf = random_crf(rng)
        _, _, dA = crf_nll(P, crf, rng.integers(0, 3, size=(3, 4)))
        assert np.all(dA[:, START] == 0.0)
        assert np.all(dA[STOP, :] == 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crf_nll(np.zeros((1, 3, 3)), zero_crf(), [[0, 1]])
        with pytest.raises(ValueError):
            crf_nll(np.zeros((2, 3, 3)), zero_crf(), [[0, 1, 2]])


class TestStackedRows:
    """Rows of different kinds in one batch, each checked against the
    enumeration oracles on its own, so results cannot leak between rows."""

    @staticmethod
    def stacked(rng, n, batch):
        # odd rows are half-integer (ties under a half-integer CRF), even rows random
        return np.stack([rng.integers(0, 2, size=(n, 3)) / 2.0 if b % 2 else
                         rng.normal(scale=2.0, size=(n, 3)) for b in range(batch)])

    @pytest.mark.parametrize("seed", range(6))
    def test_every_row_matches_the_oracles(self, seed):
        rng = make_rng(40 + seed)
        n, batch = int(rng.integers(1, 6)), int(rng.integers(3, 7))
        crf = half_integer_crf(rng) if seed % 2 else random_crf(rng)
        P = self.stacked(rng, n, batch)
        gold = rng.integers(0, 3, size=(batch, n))
        tags = viterbi_decode(P, crf)
        z = log_partition(P, crf)
        loss, dP, dA = crf_nll(P, crf, gold)
        assert tags.shape == gold.shape and z.shape == loss.shape == (batch,)
        assert dP.shape == P.shape and dA.shape == crf.shape
        dA_rows = np.zeros_like(dA)
        for b in range(batch):
            assert tuple(tags[b]) == oracle_viterbi(P[b], crf)
            log_z = oracle_log_partition(P[b], crf)
            assert z[b] == pytest.approx(log_z, abs=1e-10)
            assert loss[b] == pytest.approx(
                log_z - oracle_path_score(P[b], crf, tuple(gold[b])), abs=1e-10)
            expected_dP, expected_dA = oracle_gradients(P[b], crf, gold[b])
            np.testing.assert_allclose(dP[b], expected_dP, rtol=0, atol=1e-10)
            dA_rows += expected_dA
        np.testing.assert_allclose(dA, dA_rows, rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", range(8))
def test_float32_emissions_give_the_bytes_of_their_float64_upcast(seed):
    # training and decoding hand the CRF float32 emissions; it used to keep
    # its alphas, and so every score, in float32
    rng = make_rng(60 + seed)
    batch, n = int(rng.integers(1, 60)), int(rng.integers(1, 120))
    P = rng.normal(scale=3.0, size=(batch, n, 3)).astype(np.float32)
    crf = random_crf(rng)
    gold = rng.integers(0, 3, size=(batch, n))
    for got, want in zip(crf_nll(P, crf, gold), crf_nll(P.astype(np.float64), crf, gold)):
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert np.array_equal(viterbi_decode(P, crf), viterbi_decode(P.astype(np.float64), crf))
