"""Peephole LSTM and its bidirectional wrapper, with the four gates fused.

The peephole connections are full H x H matrices, taken literally from the
gate definitions rather than the diagonal form many implementations use.
The output gate peeks at the freshly computed cell state, not the previous one.

Gates are fused per direction as [i f g o] (Appleyard et al., arXiv
1604.01946): one GEMM projects the inputs of all timesteps, then each step
adds one recurrent and two peephole products and activates in place. Passes
run over (B, n, d_in) batches of equal-length sequences from a zero state.
Every array a pass allocates takes the dtype of its inputs xs: training runs
in float64, and decoding passes float32 inputs with float32 weights.

The weights are ten plain arrays in a dict, five per direction under "fwd."
and "bwd." (lstm_shapes); the backward pass adds into a gradient dict with
the same names and shapes. A direction's backprop cache is (gates, c,
tanh_c): the activated [i f g o] (B, n, 4H) and the cell states (B, n, H),
in the direction's own step order. The backward pass writes the gate
gradients over it, so it serves once.

The two directions share no state until their outputs are concatenated, and
their input gradients meet only in one sum. From PARALLEL_MIN_ROWS batch rows
on, bilstm_forward_batch and bilstm_backward_batch hand the backward
direction to a one-thread executor, joined before they return, and run the
forward direction in the caller's thread (the cuDNN design of running
independent directions concurrently); numpy releases the GIL inside most of
a step's GEMMs and ufuncs. Each direction writes only its own output half,
cache and gradient arrays, and the sum runs after the join, so every result
is bit-identical to the serial order. Below the threshold each step's calls are
too short: the GIL hand-offs between them cost more than the overlap saves,
so `segment` on a document of one or a few units runs serially. Threaded
over serial speed, the range of two sweeps at H = d_in = 100, n = 100 (65 at
B = 1), with 1 BLAS thread on a 2-core host:

    B                  1            8            16           25           50
    forward, f64       0.90-0.94x   0.97-0.99x   1.02-1.12x   1.24-1.36x   1.39-1.55x
    backward, f64      0.96-0.97x   0.96-1.09x   1.46-1.53x   1.19-1.51x   1.38-1.81x
    forward, f32       0.98x        0.63-0.66x   0.84-0.94x   0.76-0.77x   1.21-1.38x
    backward, f32      0.96-0.99x   0.72-0.84x   1.34-1.38x   1.07-1.20x   1.41-1.63x

A float32 step is shorter, so the hand-offs weigh more: over four sweeps on
a shared 2-core host, the forward pass (decoding runs it and leaves the cache
unread) measured 0.70-1.01x at B = 25, 0.88-0.99x at B = 35 and 0.94-1.06x
at B = 50 in float32, against 0.89-1.00x, 0.88-1.34x and 1.24-1.92x in
float64. PARALLEL_MIN_ROWS is one value for both dtypes: no other value sped
up both.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .nncore import glorot_uniform, sigmoid

# batch rows from which the two directions run in two threads; below it the
# GIL hand-offs between the per-step numpy calls cost more than the overlap saves
PARALLEL_MIN_ROWS = 25
# one direction's weights, in this order, each named "<direction>.<name>"
LSTM_NAMES = ("W_x", "W_h", "W_c", "W_co", "b")


def lstm_shapes(d_in: int, hidden: int, prefix: str) -> dict:
    """One direction's weight shapes by name, gates fused as [i f g o]."""
    H = hidden
    return {f"{prefix}.W_x": (d_in, 4 * H),
            f"{prefix}.W_h": (H, 4 * H),
            f"{prefix}.W_c": (H, 2 * H),  # peephole on c_prev for i and f
            f"{prefix}.W_co": (H, H),  # peephole on the new c for o
            f"{prefix}.b": (1, 4 * H)}


def new_lstm_weights(d_in: int, hidden: int, rng: np.random.Generator, prefix: str) -> dict:
    w = {name: np.zeros(shape) for name, shape in lstm_shapes(d_in, hidden, prefix).items()}
    W_x, W_h, W_c, W_co, _ = w.values()
    H = hidden
    # each gate's blocks are drawn as separate H-wide matrices in the order
    # x, h, peephole, gate by gate, so the Glorot limits are per gate
    for k, peephole in enumerate((W_c[:, :H], W_c[:, H:], None, W_co)):
        cols = slice(k * H, (k + 1) * H)
        W_x[:, cols] = glorot_uniform((d_in, H), rng)
        W_h[:, cols] = glorot_uniform((H, H), rng)
        if peephole is not None:
            peephole[...] = glorot_uniform((H, H), rng)
    return w


def new_bilstm_weights(d_in: int, hidden: int, rng: np.random.Generator) -> dict:
    # the forward direction draws first
    return new_lstm_weights(d_in, hidden, rng, "fwd") | new_lstm_weights(d_in, hidden, rng, "bwd")


def _direction(arrays: dict, prefix: str) -> tuple:
    """One direction's arrays, in LSTM_NAMES order, from a weight or gradient dict."""
    return tuple(arrays[f"{prefix}.{name}"] for name in LSTM_NAMES)


# ---------------------------------------------------------------------------
# one direction over a (B, n, d_in) batch

def _direction_forward(w: tuple, xs, hs):
    """One direction with weights w in step order, writing h into hs (B, n, H);
    the backward direction is this pass over xs and hs reversed along time."""
    W_x, W_h, W_c, W_co, b = w
    batch, n, d = xs.shape
    H = W_h.shape[0]
    A = (xs.reshape(-1, d) @ W_x).reshape(batch, n, 4 * H)
    A += b
    C, TC = np.empty((batch, n, H), xs.dtype), np.empty((batch, n, H), xs.dtype)
    h = c = np.zeros((batch, H), xs.dtype)
    for t in range(n):
        a = A[:, t]
        i_f, i, f, g, o = a[:, :2 * H], a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
        a += h @ W_h
        i_f += c @ W_c
        sigmoid(i_f, out=i_f)
        np.tanh(g, out=g)
        c = np.multiply(f, c, out=C[:, t])
        c += i * g
        o += c @ W_co
        sigmoid(o, out=o)
        h = np.multiply(o, np.tanh(c, out=TC[:, t]), out=hs[:, t])
    return A, C, TC


def _direction_backward(w: tuple, g: tuple, xs, cache, dhs):
    """Add one direction's weight gradients into g from xs, the cache and dhs
    in its step order; returns dxs, shaped like xs."""
    A, C, TC = cache
    batch, n, H = C.shape
    W_x, W_h, W_c, W_co, _ = w
    gW_x, gW_h, gW_c, gW_co, gb = g
    i, f, g, o = (A[:, :, k * H:(k + 1) * H] for k in range(4))
    # In place, turn the activations into the factors the steps multiply by:
    # i -> g i(1-i), g -> i(1-g^2), o -> tc o(1-o), tanh_c -> o(1-tc^2); f
    # stays. The one scratch array then holds h, for dW_h.
    scratch = np.multiply(g, g)
    np.subtract(1.0, scratch, out=scratch)
    scratch *= i
    g *= i
    np.subtract(1.0, i, out=i)
    i *= g
    g[...] = scratch
    Hs = np.multiply(o, TC, out=scratch)
    np.multiply(TC, TC, out=TC)
    np.subtract(1.0, TC, out=TC)
    TC *= o
    np.subtract(1.0, o, out=o)
    o *= Hs

    dh, dc = np.zeros((batch, H), A.dtype), np.zeros((batch, H), A.dtype)
    for t in range(n - 1, -1, -1):
        a, f_t = A[:, t], A[:, t, H:2 * H]
        dh += dhs[:, t]
        # c gets gradient through h, from the next step and through the o peephole
        dc += dh * TC[:, t]
        dc += np.multiply(a[:, 3 * H:], dh, out=a[:, 3 * H:]) @ W_co.T
        dc_prev = dc * f_t
        f_t *= 1.0 - f_t
        f_t *= C[:, t - 1] if t else 0.0  # c_prev is zero at the first step
        f_t *= dc
        a[:, :H] *= dc
        a[:, 2 * H:3 * H] *= dc
        dc_prev += a[:, :2 * H] @ W_c.T
        dh, dc = a @ W_h.T, dc_prev

    dA = A.reshape(-1, 4 * H)
    gb += dA.sum(axis=0)
    gW_x += xs.reshape(-1, xs.shape[2]).T @ dA
    gW_co += C.reshape(-1, H).T @ dA[:, 3 * H:]
    # Row r of the flattened (B*n, .) arrays has its previous state in row r-1,
    # except at each sequence's first step. Zeroing each sequence's last step,
    # which is no step's previous state, makes the one-row shift exact.
    if n > 0:
        Hs[:, -1] = C[:, -1] = 0.0
        gW_h += Hs.reshape(-1, H)[:-1].T @ dA[1:]
        gW_c += C.reshape(-1, H)[:-1].T @ dA[1:, :2 * H]
    return (dA @ W_x.T).reshape(xs.shape)


# ---------------------------------------------------------------------------
# bidirectional passes

def _both(fn, args_f, args_b, rows: int):
    """(fn(*args_f), fn(*args_b)); from PARALLEL_MIN_ROWS rows on, the second
    runs on a one-thread executor, whose shutdown joins it before this returns
    or raises; its exception reaches the caller through result(). The calls
    must share no array they write."""
    if rows < PARALLEL_MIN_ROWS:
        return fn(*args_f), fn(*args_b)
    with ThreadPoolExecutor(1) as worker:
        second = worker.submit(fn, *args_b)
        return fn(*args_f), second.result()


def bilstm_forward_batch(weights: dict, xs: np.ndarray):
    """xs (B, n, d_in) -> outputs (B, n, 2H) plus the cache for backprop."""
    H = weights["fwd.W_h"].shape[0]
    out = np.empty(xs.shape[:2] + (2 * H,), xs.dtype)
    fwd, bwd = _both(_direction_forward, (_direction(weights, "fwd"), xs, out[:, :, :H]),
                     (_direction(weights, "bwd"), xs[:, ::-1], out[:, ::-1, H:]), len(xs))
    return out, (xs, fwd, bwd)


def bilstm_backward_batch(weights: dict, grads: dict, cache, douts: np.ndarray):
    """Add the ten weight gradients into grads; returns gradients w.r.t. the
    inputs. Consumes the cache: the gate gradients are written over it."""
    xs, fwd, bwd = cache
    H = weights["fwd.W_h"].shape[0]
    dxs, dxs_b = _both(_direction_backward,
                       (_direction(weights, "fwd"), _direction(grads, "fwd"),
                        xs, fwd, douts[:, :, :H]),
                       (_direction(weights, "bwd"), _direction(grads, "bwd"),
                        xs[:, ::-1], bwd, douts[:, ::-1, H:]), len(xs))
    dxs += dxs_b[:, ::-1]
    return dxs
