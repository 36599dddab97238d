"""Peephole LSTM and Bi-LSTM tests: closed forms, invariants, gradients, and
the fused layout against the per-gate oracle."""

import threading

import numpy as np
import pytest

from judou import lstm
from judou.lstm import (
    LSTM_NAMES,
    bilstm_backward_batch,
    bilstm_forward_batch,
    new_bilstm_weights,
    new_lstm_weights,
)
from judou.nncore import glorot_uniform

from oracles import grad_check, lstm_gate_weights, oracle_cell_forward, oracle_lstm_direction


def direction(d_in, hidden, rng):
    """One direction's weights, named under "lstm."."""
    return new_lstm_weights(d_in, hidden, rng, "lstm")


def bilstm(fwd, bwd):
    """BiLSTM weights from two one-direction dicts; the same dict twice
    gives both directions the same arrays."""
    return {f"{prefix}.{name}": w[f"lstm.{name}"]
            for prefix, w in (("fwd", fwd), ("bwd", bwd)) for name in LSTM_NAMES}


def zero_grads(weights):
    return {name: np.zeros_like(w) for name, w in weights.items()}


def zeroed_params(d_in, hidden):
    p = direction(d_in, hidden, np.random.default_rng(0))
    for w in p.values():
        w[:] = 0.0
    return p


def step(p, prefix, x, h, c):
    """One per-gate cell update for a single sequence (the oracle)."""
    cache = oracle_cell_forward(lstm_gate_weights(p, prefix), x[None, :], h[None, :], c[None, :])
    return cache["h"][0], cache["c"][0]


def gates(A, H):
    """The [i f g o] blocks of a cached gate array."""
    return [A[..., k * H:(k + 1) * H] for k in range(4)]


# ---------------------------------------------------------------------------
# closed forms

def test_zero_params_zero_input_gives_zero_state():
    # every sequence starts from the zero state; with zero weights all gate
    # preactivations are 0: i = f = o = 0.5, g = 0, so c = h = 0 at every step
    shared = zeroed_params(3, 4)
    out, (_, fwd, bwd) = bilstm_forward_batch(bilstm(shared, shared), np.zeros((2, 3, 3)))
    assert np.array_equal(out, np.zeros((2, 3, 8)))
    for A, C, TC in (fwd, bwd):
        assert np.array_equal(C, np.zeros((2, 3, 4)))
        assert np.array_equal(TC, np.zeros((2, 3, 4)))


def test_zero_params_carried_cell_closed_form():
    # with zero weights i = f = o = 0.5 and g = tanh(b_g) = 0.5, so the cell
    # carries half of itself: c_t = 0.5 c_{t-1} + 0.25, h_t = 0.5 tanh(c_t)
    p = zeroed_params(2, 5)
    p["lstm.b"][0, 10:15] = np.arctanh(0.5)
    out, (_, (A, C, TC), _) = bilstm_forward_batch(bilstm(p, p), np.zeros((1, 3, 2)))
    c = 0.0
    for t in range(3):
        c = 0.5 * c + 0.25
        assert np.allclose(C[0, t], c)
        assert np.allclose(out[0, t, :5], 0.5 * np.tanh(c))


def test_step_rejects_wrong_input_shape():
    p = new_bilstm_weights(3, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        bilstm_forward_batch(p, np.zeros((1, 2, 5)))


def test_gate_ranges_on_random_inputs():
    rng = np.random.default_rng(5)
    p = new_bilstm_weights(4, 6, rng)
    xs = rng.normal(size=(2, 7, 4))
    out, (_, fwd, bwd) = bilstm_forward_batch(p, xs)
    # the backward direction's cache runs in its own step order: reversed time
    for (A, C, TC), hs in ((fwd, out[:, :, :6]), (bwd, out[:, ::-1, 6:])):
        i, f, g, o = gates(A, 6)
        for gate in (i, f, o):
            assert np.all((gate > 0.0) & (gate < 1.0))
        assert np.all(np.abs(g) < 1.0)
        assert np.array_equal(TC, np.tanh(C))
        assert np.allclose(hs, o * np.tanh(C))
    # h = o * tanh(c) with o in (0,1) keeps every output inside (-1, 1)
    assert np.all(np.abs(out) < 1.0)


# ---------------------------------------------------------------------------
# sequence shapes and stitching

def test_output_shape_is_n_by_2h():
    rng = np.random.default_rng(1)
    p = new_bilstm_weights(3, 7, rng)
    out, _ = bilstm_forward_batch(p, rng.normal(size=(2, 9, 3)))
    assert out.shape == (2, 9, 14)


def test_empty_sequence_gives_empty_output():
    p = new_bilstm_weights(3, 4, np.random.default_rng(2))
    out, _ = bilstm_forward_batch(p, np.zeros((1, 0, 3)))
    assert out.shape == (1, 0, 8)


def test_length_one_equals_single_steps():
    rng = np.random.default_rng(3)
    p = new_bilstm_weights(4, 5, rng)
    x = rng.normal(size=4)
    out, _ = bilstm_forward_batch(p, x[None, None, :])
    fwd_h, _ = step(p, "fwd", x, np.zeros(5), np.zeros(5))
    bwd_h, _ = step(p, "bwd", x, np.zeros(5), np.zeros(5))
    assert np.allclose(out[0, 0, :5], fwd_h)
    assert np.allclose(out[0, 0, 5:], bwd_h)


def test_forward_half_matches_manual_step_chain():
    rng = np.random.default_rng(4)
    p = new_bilstm_weights(3, 4, rng)
    xs = rng.normal(size=(6, 3))
    out, _ = bilstm_forward_batch(p, xs[None])
    h, c = np.zeros(4), np.zeros(4)
    for t in range(6):
        h, c = step(p, "fwd", xs[t], h, c)
        assert np.allclose(out[0, t, :4], h)


def test_reverse_swap_symmetry():
    # with the same weights in both directions, reversing the input reverses
    # the output sequence and swaps its forward/backward halves
    rng = np.random.default_rng(6)
    shared = direction(3, 4, rng)
    p = bilstm(shared, shared)
    xs = rng.normal(size=(2, 8, 3))
    out, _ = bilstm_forward_batch(p, xs)
    out_rev, _ = bilstm_forward_batch(p, xs[:, ::-1])
    n = xs.shape[1]
    for t in range(n):
        assert np.allclose(out_rev[:, t, :4], out[:, n - 1 - t, 4:])
        assert np.allclose(out_rev[:, t, 4:], out[:, n - 1 - t, :4])


def test_saturated_gates_carry_cell_state_unchanged():
    # i ~ 0 and f ~ 1 via large biases b[:H] and b[H:2H]; only the first
    # input, whose feature 0 is on, opens the input gate. From then on c_t
    # stays at c_0, the first step's cell state.
    rng = np.random.default_rng(7)
    p = direction(3, 4, rng)
    p["lstm.b"][0, :4] = -50.0
    p["lstm.b"][0, 4:8] = 50.0
    p["lstm.W_x"][0, :4] = 100.0
    xs = rng.normal(size=(1, 7, 3))
    xs[0, 0, 0] = 1.0
    xs[0, 1:, 0] = 0.0
    _, (_, (A, C, TC), _) = bilstm_forward_batch(bilstm(p, p), xs)
    c0 = C[0, 0]
    assert np.all(np.abs(c0) > 0.01)
    for t in range(1, 7):
        assert np.allclose(C[0, t], c0, atol=1e-10)


def test_batch_forward_matches_per_sequence():
    rng = np.random.default_rng(8)
    p = new_bilstm_weights(4, 3, rng)
    xs = rng.normal(size=(3, 5, 4))
    out, _ = bilstm_forward_batch(p, xs)
    for b in range(3):
        single, _ = bilstm_forward_batch(p, xs[b:b + 1])
        assert np.allclose(out[b], single[0])


def test_forward_without_cache_gives_the_same_outputs():
    rng = np.random.default_rng(9)
    p = new_bilstm_weights(4, 3, rng)
    xs = rng.normal(size=(3, 5, 4))
    out, cache = bilstm_forward_batch(p, xs)
    bare, no_cache = bilstm_forward_batch(p, xs, keep_cache=False)
    assert np.array_equal(bare, out)
    assert cache is not None and no_cache is None


# ---------------------------------------------------------------------------
# the fused layout

@pytest.mark.parametrize("batch,n,d_in,hidden",
                         [(1, 1, 3, 2), (3, 1, 4, 5), (1, 0, 3, 4), (3, 0, 2, 2),
                          (2, 6, 3, 4), (4, 11, 5, 3), (1, 9, 2, 6)])
def test_fused_pass_matches_per_gate_oracle(batch, n, d_in, hidden, both_paths):
    for _ in both_paths():
        rng = np.random.default_rng(100 * n + 10 * batch + hidden)
        p = new_bilstm_weights(d_in, hidden, rng)
        for w in p.values():
            w[...] = rng.normal(scale=0.5, size=w.shape)
        xs = rng.normal(size=(batch, n, d_in))
        douts = rng.normal(size=(batch, n, 2 * hidden))

        grads = zero_grads(p)
        out, cache = bilstm_forward_batch(p, xs)
        dxs = bilstm_backward_batch(p, grads, cache, douts)
        hs_f, dxs_f, grads_f = oracle_lstm_direction(p, "fwd", xs, douts[:, :, :hidden], False)
        hs_b, dxs_b, grads_b = oracle_lstm_direction(p, "bwd", xs, douts[:, :, hidden:], True)

        assert out.shape == (batch, n, 2 * hidden) and dxs.shape == xs.shape
        assert np.allclose(out, np.concatenate([hs_f, hs_b], axis=2), rtol=0, atol=1e-12)
        assert np.allclose(dxs, dxs_f + dxs_b, rtol=0, atol=1e-12)
        assert list(grads) == list(grads_f | grads_b)
        for name, g in (grads_f | grads_b).items():
            assert grads[name].shape == g.shape, name
            assert np.allclose(grads[name], g, rtol=0, atol=1e-12), name


@pytest.mark.parametrize("batch,n", [(1, 1), (3, 0), (4, 11)])
def test_without_input_grads_the_parameter_grads_are_unchanged(batch, n, both_paths):
    # frozen embeddings read no input gradient, so the backward pass skips it
    rng = np.random.default_rng(7 * n + batch)
    xs, douts = rng.normal(size=(batch, n, 3)), rng.normal(size=(batch, n, 8))
    for _ in both_paths():
        grads = []
        for input_grads in (True, False):
            p = new_bilstm_weights(3, 4, np.random.default_rng(5))
            g = zero_grads(p)
            _, cache = bilstm_forward_batch(p, xs)
            dxs = bilstm_backward_batch(p, g, cache, douts, input_grads=input_grads)
            assert (dxs is None) == (not input_grads)
            grads.append(list(g.values()))
        for with_dxs, without in zip(*grads):
            assert np.array_equal(with_dxs, without)


def test_new_params_follow_the_per_gate_draw_order():
    d_in, H = 5, 3
    p = direction(d_in, H, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    w = lstm_gate_weights(p, "lstm")
    for gate in "ifco":
        assert np.array_equal(w[f"W_x{gate}"], glorot_uniform((d_in, H), rng))
        assert np.array_equal(w[f"W_h{gate}"], glorot_uniform((H, H), rng))
        if gate != "c":
            assert np.array_equal(w[f"W_c{gate}"], glorot_uniform((H, H), rng))
        assert np.array_equal(w[f"b_{gate}"], np.zeros(H))
    assert list(p) == ["lstm.W_x", "lstm.W_h", "lstm.W_c", "lstm.W_co", "lstm.b"]


def test_cache_holds_six_h_floats_per_position():
    B, n, d, H = 50, 100, 100, 100
    rng = np.random.default_rng(22)
    p = new_bilstm_weights(d, H, rng)
    xs = rng.normal(size=(B, n, d))
    _, (cached_xs, fwd, bwd) = bilstm_forward_batch(p, xs)
    assert cached_xs is xs  # the input is referenced, not copied
    for direction in (fwd, bwd):
        owners = {}
        for a in direction:
            while a.base is not None:  # count a view as the array that owns its memory
                a = a.base
            owners[id(a)] = a.size
        assert sum(owners.values()) <= (4 * H + 2 * H) * B * n


# ---------------------------------------------------------------------------
# gradients

def test_grad_check_forward_chain_sum_of_final_h(both_paths):
    for _ in both_paths():
        rng = np.random.default_rng(11)
        p = new_bilstm_weights(3, 4, rng)
        xs = rng.normal(size=(1, 4, 3))

        def loss():
            out, _ = bilstm_forward_batch(p, xs)
            return float(out[0, -1, :4].sum())

        grads = zero_grads(p)
        out, cache = bilstm_forward_batch(p, xs)
        douts = np.zeros_like(out)
        douts[0, -1, :4] = 1.0
        bilstm_backward_batch(p, grads, cache, douts)
        assert grad_check(loss, p, grads) < 1e-4


def test_grad_check_full_bilstm_sequence_loss(both_paths):
    for _ in both_paths():
        rng = np.random.default_rng(12)
        p = new_bilstm_weights(3, 4, rng)
        xs = rng.normal(size=(2, 6, 3))
        weights = rng.normal(size=(2, 6, 8))

        def loss():
            out, _ = bilstm_forward_batch(p, xs)
            return float((out * weights).sum())

        grads = zero_grads(p)
        out, cache = bilstm_forward_batch(p, xs)
        bilstm_backward_batch(p, grads, cache, weights.copy())
        assert grad_check(loss, p, grads) < 1e-4


def test_input_gradients_match_finite_differences(both_paths):
    for _ in both_paths():
        rng = np.random.default_rng(13)
        p = new_bilstm_weights(2, 3, rng)
        xs = rng.normal(size=(1, 3, 2))
        weights = rng.normal(size=(1, 3, 6))

        out, cache = bilstm_forward_batch(p, xs)
        dxs = bilstm_backward_batch(p, zero_grads(p), cache, weights.copy())

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


def test_backward_accumulates_across_calls(both_paths):
    for _ in both_paths():
        rng = np.random.default_rng(14)
        p = new_bilstm_weights(2, 3, rng)
        xs = rng.normal(size=(1, 4, 2))
        grads = zero_grads(p)
        out, cache = bilstm_forward_batch(p, xs)
        douts = np.ones_like(out)
        bilstm_backward_batch(p, grads, cache, douts)
        once = [g.copy() for g in grads.values()]
        out, cache = bilstm_forward_batch(p, xs)
        bilstm_backward_batch(p, grads, cache, douts)
        for g, g_once in zip(grads.values(), once):
            assert np.allclose(g, 2.0 * g_once)


# ---------------------------------------------------------------------------
# the two directions in two threads

def in_dtype(p, dtype):
    """The weight dict p with every array cast to dtype."""
    return {name: w.astype(dtype) for name, w in p.items()}


def pass_bytes(batch, n, keep_cache, input_grads, dtype=np.float64):
    """Every array one forward pass, and with keep_cache the backward pass
    after it, produces: outputs, caches before and after the backward pass,
    dxs and every weight gradient, as (shape, dtype, bytes); weights, inputs
    and output gradients are in dtype."""
    rng = np.random.default_rng(1000 * batch + n)
    p = in_dtype(new_bilstm_weights(5, 4, rng), dtype)
    xs = rng.normal(size=(batch, n, 5)).astype(dtype)
    douts = rng.normal(size=(batch, n, 8)).astype(dtype)
    out, cache = bilstm_forward_batch(p, xs, keep_cache=keep_cache)
    arrays = [out]
    if keep_cache:
        cached_xs, fwd, bwd = cache
        assert cached_xs is xs
        arrays += [a.copy() for a in fwd + bwd]
        grads = zero_grads(p)
        dxs = bilstm_backward_batch(p, grads, cache, douts, input_grads=input_grads)
        assert (dxs is None) == (not input_grads)
        arrays += list(fwd + bwd) + list(grads.values()) + ([dxs] if input_grads else [])
    else:
        assert cache is None
    assert all(a.dtype == dtype for a in arrays)
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays]


def assert_paths_bytewise_equal(batch, n, dtype, both_paths):
    flags = [(True, True), (True, False), (False, True)]  # (keep_cache, input_grads)
    threaded, serial = ([pass_bytes(batch, n, *f, dtype) for f in flags] for _ in both_paths())
    assert threaded == serial


@pytest.mark.parametrize("batch", [1, 24, 25, 50])
@pytest.mark.parametrize("n", [1, 7, 100])
def test_threaded_and_serial_passes_are_bytewise_equal(batch, n, both_paths):
    assert_paths_bytewise_equal(batch, n, np.float64, both_paths)


@pytest.mark.parametrize("batch", [1, 24, 25, 50])
@pytest.mark.parametrize("n", [1, 7, 100])
def test_threaded_and_serial_float32_passes_are_bytewise_equal(batch, n, both_paths):
    assert_paths_bytewise_equal(batch, n, np.float32, both_paths)


@pytest.mark.parametrize("batch,n", [(1, 1), (3, 0), (4, 30), (25, 12)])
def test_a_float32_pass_runs_in_float32_within_1e_5_of_float64(batch, n, both_paths):
    rng = np.random.default_rng(31 * n + batch)
    p = new_bilstm_weights(6, 5, rng)
    xs = rng.normal(size=(batch, n, 6))
    for _ in both_paths():
        out64, (_, *cache64) = bilstm_forward_batch(p, xs)
        out32, (xs32, *cache32) = bilstm_forward_batch(in_dtype(p, np.float32),
                                                       xs.astype(np.float32))
        assert xs32.dtype == np.float32
        arrays64 = [out64] + [a for d in cache64 for a in d]
        arrays32 = [out32] + [a for d in cache32 for a in d]
        for a64, a32 in zip(arrays64, arrays32):
            assert a64.dtype == np.float64 and a32.dtype == np.float32
            assert a32.shape == a64.shape
            assert np.allclose(a32, a64, rtol=0, atol=1e-5)


def test_directions_run_in_two_threads_from_the_threshold(monkeypatch):
    threads = {}  # (pass, id of the direction's W_x) -> the thread it ran in
    for name in ("_direction_forward", "_direction_backward"):
        def record(w, *args, real=getattr(lstm, name)):
            threads[real.__name__, id(w[0])] = threading.get_ident()
            return real(w, *args)
        monkeypatch.setattr(lstm, name, record)
    rng = np.random.default_rng(23)
    p = new_bilstm_weights(3, 4, rng)
    rows = lstm.PARALLEL_MIN_ROWS
    for batch, n_threads in ((rows - 1, 1), (rows, 2)):
        threads.clear()
        out, cache = bilstm_forward_batch(p, rng.normal(size=(batch, 5, 3)))
        bilstm_backward_batch(p, zero_grads(p), cache, np.ones_like(out))
        for pass_name in ("_direction_forward", "_direction_backward"):
            mine = threads[pass_name, id(p["fwd.W_x"])]
            other = threads[pass_name, id(p["bwd.W_x"])]
            assert mine == threading.get_ident()  # the forward direction runs in the caller
            assert len({mine, other}) == n_threads


# a batch on the threaded path at the default threshold
ROWS = lstm.PARALLEL_MIN_ROWS


def wrong_d_in_both(rng):
    return new_bilstm_weights(3, 4, rng), rng.normal(size=(ROWS, 6, 5)), None


def wrong_d_in_forward_direction(rng):
    # the caller's direction fails at once while the worker's runs 1000 steps
    p = bilstm(direction(5, 4, rng), direction(3, 4, rng))
    return p, rng.normal(size=(ROWS, 1000, 3)), None


def wrong_d_in_backward_direction(rng):
    p = bilstm(direction(3, 4, rng), direction(5, 4, rng))
    return p, rng.normal(size=(ROWS, 6, 3)), None


def wrong_douts_width(rng):
    # the backward direction's half of douts is 2 wide, not H = 4
    xs = rng.normal(size=(ROWS, 6, 3))
    return new_bilstm_weights(3, 4, rng), xs, np.ones(xs.shape[:2] + (6,))


@pytest.mark.parametrize("case", [wrong_d_in_both, wrong_d_in_forward_direction,
                                  wrong_d_in_backward_direction, wrong_douts_width])
def test_a_direction_error_reaches_the_caller_and_leaves_no_thread(case, both_paths, monkeypatch):
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    threads = threading.active_count()
    messages = []
    for _ in both_paths():
        p, xs, douts = case(np.random.default_rng(24))
        with pytest.raises(ValueError) as e:
            out, cache = bilstm_forward_batch(p, xs)
            bilstm_backward_batch(p, zero_grads(p), cache, douts)
        messages.append(str(e.value))
        assert threading.active_count() == threads
    assert messages[0] == messages[1]
    assert not unhandled
