"""Peephole LSTM and Bi-LSTM tests: closed forms, invariants, gradients."""

import numpy as np
import pytest

from judou.lstm import (
    BiLstmParams,
    _cell_forward,
    bilstm_backward_batch,
    bilstm_forward_batch,
    new_bilstm_params,
    new_lstm_params,
)
from judou.nncore import grad_check


def zeroed_params(d_in, hidden):
    p = new_lstm_params(d_in, hidden, np.random.default_rng(0))
    for q in p.params():
        q.value[:] = 0.0
    return p


def step(p, x, h, c):
    """One cell update for a single sequence, as a batch of one row."""
    cache = _cell_forward(p, x[None, :], h[None, :], c[None, :])
    return cache["h"][0], cache["c"][0]


# ---------------------------------------------------------------------------
# closed-form single steps

def test_zero_params_zero_input_gives_zero_state():
    # every sequence starts from the zero state; with zero weights all gate
    # preactivations are 0: i = f = o = 0.5, g = 0, so c = h = 0 at every step
    shared = zeroed_params(3, 4)
    out, (caches_f, caches_b) = bilstm_forward_batch(BiLstmParams(shared, shared),
                                                     np.zeros((2, 3, 3)))
    assert np.array_equal(out, np.zeros((2, 3, 8)))
    for cache in caches_f + caches_b:
        assert np.array_equal(cache["c"], np.zeros((2, 4)))


def test_zero_params_carried_cell_closed_form():
    # with zero weights and c_prev = 1: c = f*1 + i*0 = 0.5, h = 0.5*tanh(0.5)
    p = zeroed_params(2, 5)
    h, c = step(p, np.zeros(2), np.zeros(5), np.ones(5))
    assert np.allclose(c, 0.5)
    assert np.allclose(h, 0.5 * np.tanh(0.5))


def test_step_rejects_wrong_input_shape():
    p = new_bilstm_params(3, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        bilstm_forward_batch(p, np.zeros((1, 2, 5)))


def test_gate_ranges_on_random_inputs():
    rng = np.random.default_rng(5)
    p = new_bilstm_params(4, 6, rng)
    xs = rng.normal(size=(2, 7, 4))
    out, (caches_f, caches_b) = bilstm_forward_batch(p, xs)
    for caches in (caches_f, caches_b):
        for cache in caches:
            for gate in ("i", "f", "o"):
                assert np.all((cache[gate] > 0.0) & (cache[gate] < 1.0))
            assert np.all(np.abs(cache["g"]) < 1.0)
            assert np.allclose(cache["h"], cache["o"] * np.tanh(cache["c"]))
    # h = o * tanh(c) with o in (0,1) keeps every output inside (-1, 1)
    assert np.all(np.abs(out) < 1.0)


# ---------------------------------------------------------------------------
# sequence shapes and stitching

def test_output_shape_is_n_by_2h():
    rng = np.random.default_rng(1)
    p = new_bilstm_params(3, 7, rng)
    out, _ = bilstm_forward_batch(p, rng.normal(size=(2, 9, 3)))
    assert out.shape == (2, 9, 14)


def test_empty_sequence_gives_empty_output():
    p = new_bilstm_params(3, 4, np.random.default_rng(2))
    out, _ = bilstm_forward_batch(p, np.zeros((1, 0, 3)))
    assert out.shape == (1, 0, 8)


def test_length_one_equals_single_steps():
    rng = np.random.default_rng(3)
    p = new_bilstm_params(4, 5, rng)
    x = rng.normal(size=4)
    out, _ = bilstm_forward_batch(p, x[None, None, :])
    fwd_h, _ = step(p.forward, x, np.zeros(5), np.zeros(5))
    bwd_h, _ = step(p.backward, x, np.zeros(5), np.zeros(5))
    assert np.allclose(out[0, 0, :5], fwd_h)
    assert np.allclose(out[0, 0, 5:], bwd_h)


def test_forward_half_matches_manual_step_chain():
    rng = np.random.default_rng(4)
    p = new_bilstm_params(3, 4, rng)
    xs = rng.normal(size=(6, 3))
    out, _ = bilstm_forward_batch(p, xs[None])
    h, c = np.zeros(4), np.zeros(4)
    for t in range(6):
        h, c = step(p.forward, xs[t], h, c)
        assert np.allclose(out[0, t, :4], h)


def test_reverse_swap_symmetry():
    # with the same weights in both directions, reversing the input reverses
    # the output sequence and swaps its forward/backward halves
    rng = np.random.default_rng(6)
    shared = new_lstm_params(3, 4, rng)
    p = BiLstmParams(forward=shared, backward=shared)
    xs = rng.normal(size=(2, 8, 3))
    out, _ = bilstm_forward_batch(p, xs)
    out_rev, _ = bilstm_forward_batch(p, xs[:, ::-1])
    n = xs.shape[1]
    for t in range(n):
        assert np.allclose(out_rev[:, t, :4], out[:, n - 1 - t, 4:])
        assert np.allclose(out_rev[:, t, 4:], out[:, n - 1 - t, :4])


def test_saturated_gates_carry_cell_state_unchanged():
    # i ~ 0 and f ~ 1 via large biases: c_t stays at c_0 across steps
    rng = np.random.default_rng(7)
    p = new_lstm_params(3, 4, rng)
    p.b_i.value[:] = -50.0
    p.b_f.value[:] = 50.0
    c0 = rng.normal(size=4)
    h, c = np.zeros(4), c0.copy()
    for _ in range(6):
        h, c = step(p, rng.normal(size=3), h, c)
    assert np.allclose(c, c0, atol=1e-10)


def test_batch_forward_matches_per_sequence():
    rng = np.random.default_rng(8)
    p = new_bilstm_params(4, 3, rng)
    xs = rng.normal(size=(3, 5, 4))
    out, _ = bilstm_forward_batch(p, xs)
    for b in range(3):
        single, _ = bilstm_forward_batch(p, xs[b:b + 1])
        assert np.allclose(out[b], single[0])


def test_forward_without_cache_gives_the_same_outputs():
    rng = np.random.default_rng(9)
    p = new_bilstm_params(4, 3, rng)
    xs = rng.normal(size=(3, 5, 4))
    out, cache = bilstm_forward_batch(p, xs)
    bare, no_cache = bilstm_forward_batch(p, xs, keep_cache=False)
    assert np.array_equal(bare, out)
    assert cache is not None and no_cache is None


# ---------------------------------------------------------------------------
# gradients

def test_grad_check_forward_chain_sum_of_final_h():
    rng = np.random.default_rng(11)
    p = new_bilstm_params(3, 4, rng)
    xs = rng.normal(size=(1, 4, 3))

    def loss():
        out, _ = bilstm_forward_batch(p, xs)
        return float(out[0, -1, :4].sum())

    out, cache = bilstm_forward_batch(p, xs)
    douts = np.zeros_like(out)
    douts[0, -1, :4] = 1.0
    bilstm_backward_batch(p, cache, douts)
    assert grad_check(loss, p.params()) < 1e-4


def test_grad_check_full_bilstm_sequence_loss():
    rng = np.random.default_rng(12)
    p = new_bilstm_params(3, 4, rng)
    xs = rng.normal(size=(2, 6, 3))
    weights = rng.normal(size=(2, 6, 8))

    def loss():
        out, _ = bilstm_forward_batch(p, xs)
        return float((out * weights).sum())

    out, cache = bilstm_forward_batch(p, xs)
    bilstm_backward_batch(p, cache, weights.copy())
    assert grad_check(loss, p.params()) < 1e-4


def test_input_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    p = new_bilstm_params(2, 3, rng)
    xs = rng.normal(size=(1, 3, 2))
    weights = rng.normal(size=(1, 3, 6))

    out, cache = bilstm_forward_batch(p, xs)
    dxs = bilstm_backward_batch(p, cache, weights.copy())

    eps = 1e-6
    for idx in np.ndindex(xs.shape):
        orig = xs[idx]
        xs[idx] = orig + eps
        up, _ = bilstm_forward_batch(p, xs)
        xs[idx] = orig - eps
        dn, _ = bilstm_forward_batch(p, xs)
        xs[idx] = orig
        numeric = float(((up - dn) * weights).sum()) / (2 * eps)
        assert abs(dxs[idx] - numeric) < 1e-6


def test_backward_accumulates_across_calls():
    rng = np.random.default_rng(14)
    p = new_bilstm_params(2, 3, rng)
    xs = rng.normal(size=(1, 4, 2))
    out, cache = bilstm_forward_batch(p, xs)
    douts = np.ones_like(out)
    bilstm_backward_batch(p, cache, douts)
    once = [q.grad.copy() for q in p.params()]
    out, cache = bilstm_forward_batch(p, xs)
    bilstm_backward_batch(p, cache, douts)
    for q, g in zip(p.params(), once):
        assert np.allclose(q.grad, 2.0 * g)
