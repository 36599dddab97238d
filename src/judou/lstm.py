"""Peephole LSTM and its bidirectional wrapper, with the four gates fused.

The peephole connections are full H x H matrices, taken literally from the
gate definitions rather than the diagonal form many implementations use.
The output gate peeks at the freshly computed cell state, not the previous one.

Gates are fused per direction as [i f g o] (Appleyard et al., arXiv
1604.01946): one GEMM projects the inputs of all timesteps, then each step
adds one recurrent and two peephole products and activates in place. Passes
run over (B, n, d_in) batches of equal-length sequences from a zero state.
Every array a pass allocates takes the dtype of its inputs xs, and each pass
casts the weights to that dtype, the rule every layer of the tagger follows:
training and decoding pass float32 inputs with the model's float64 weights,
the gradient checks float64 ones. The gradient dict may be wider than the
pass; training adds the float32 products into float64 gradients.

The forward pass's copy holds every term of the i, f and o pre-activations
at half scale (_pass_copy). Short of underflow, scaling by a power of two
commutes with rounding, so each product and sum in those columns is exactly
half of the full-scale one, and sigmoid(a) = 0.5 + 0.5 tanh(a / 2) takes no
multiply: one tanh covers [i f g] and one o, each followed by the affine on
[i f] or o. A step is 17 numpy calls, where the sigmoid on full-scale
pre-activations took 20, and its results, the cached gates included, are
bit for bit those of that step (tests/oracles.py keeps it as the
reference). The backward pass reads the weights at full scale.

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
over serial speed at H = d_in = 100, n = 100, with 1 BLAS thread on a shared
2-core host, below. Training and decoding run float32 passes, so the float64
rows (the range of two sweeps, taken on the 20-call step) concern only the
gradient checks. The float32 rows are the range of three sweeps of 15
alternating pairs (two at B = 1 and 8) on the 17-call step, the backward
pass adding into float64 gradients as training does:

    B               1           8           16          25          35          50
    forward, f64    0.90-0.94   0.97-0.99   1.02-1.12   1.24-1.36               1.39-1.55
    backward, f64   0.96-0.97   0.96-1.09   1.46-1.53   1.19-1.51               1.38-1.81
    forward, f32    0.67-0.95   0.83-1.00   0.89-1.03   1.04-1.12   1.02-1.32   1.25-1.49
    backward, f32   0.93-0.95   0.85-0.97   0.97-1.43   0.97-1.56   0.97-1.69   1.30-1.67

A float32 step is shorter, so the hand-offs weigh more. At B = 25, the test
and validation splits' decode batch, the float32 forward pass gained in all
three sweeps (threaded won 36 of 45 pairs) and the backward pass in one,
while at 16 the forward pass lost one sweep outright (0 of 15 pairs).
PARALLEL_MIN_ROWS stays 25, one value for both dtypes.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .nncore import glorot_uniform

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

def _pass_copy(weights: dict, prefix: str, dtype: np.dtype) -> tuple:
    """One direction's weights in dtype, in LSTM_NAMES order, with every term
    of the i, f and o pre-activations at half scale: the i, f and o columns of
    W_x, W_h and b, and all of W_c and W_co. Halving is exact in binary
    floating point, so each product and sum over these arrays is exactly half
    of the full-scale one."""
    H = weights[f"{prefix}.W_h"].shape[0]
    half = dtype.type(0.5)
    columns = np.full(4 * H, half)
    columns[2 * H:3 * H] = 1.0  # g is activated at full scale
    # cast, then halve in dtype: 2.5x faster than one multiply into a float32 out
    w = tuple(a.astype(dtype) for a in _direction(weights, prefix))
    for a, scale in zip(w, (columns, columns, half, half, columns)):
        a *= scale
    return w


def _direction_forward(w: tuple, xs, hs):
    """One direction with the weights of _pass_copy, in step order, writing h
    into hs (B, n, H); the backward direction is this pass over xs and hs
    reversed along time."""
    W_x, W_h, W_c, W_co, b = w
    batch, n, d = xs.shape
    H = W_h.shape[0]
    half = xs.dtype.type(0.5)  # a Python float would cost a conversion per call
    A = (xs.reshape(-1, d) @ W_x).reshape(batch, n, 4 * H)
    A += b
    C, TC = np.empty((batch, n, H), xs.dtype), np.empty((batch, n, H), xs.dtype)
    # every step's views, made up front: [i f g o], [i f], [i f g], i, f, g, o,
    # then the step's rows of C, TC and hs
    blocks = (A, A[..., :2 * H], A[..., :3 * H], A[..., :H], A[..., H:2 * H],
              A[..., 2 * H:3 * H], A[..., 3 * H:], C, TC, hs)
    h = c = np.zeros((batch, H), xs.dtype)
    for a, i_f, ifg, i, f, g, o, c_t, tc_t, h_t in zip(*(v.swapaxes(0, 1) for v in blocks)):
        a += np.dot(h, W_h)
        i_f += np.dot(c, W_c)
        # sigmoid(x) = 0.5 + 0.5 tanh(x / 2), and i and f hold x / 2 already
        np.tanh(ifg, out=ifg)
        i_f *= half
        i_f += half
        c = np.multiply(f, c, out=c_t)
        c += i * g
        o += np.dot(c, W_co)
        np.tanh(o, out=o)
        o *= half
        o += half
        h = np.multiply(o, np.tanh(c, out=tc_t), out=h_t)
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
    fwd, bwd = _both(_direction_forward, (_pass_copy(weights, "fwd", xs.dtype), xs, out[:, :, :H]),
                     (_pass_copy(weights, "bwd", xs.dtype), xs[:, ::-1], out[:, ::-1, H:]),
                     len(xs))
    return out, (xs, fwd, bwd)


def bilstm_backward_batch(weights: dict, grads: dict, cache, douts: np.ndarray):
    """Add the ten weight gradients into grads; returns gradients w.r.t. the
    inputs. The weights are cast to the cache's dtype at full scale. Consumes
    the cache: the gate gradients are written over it."""
    xs, fwd, bwd = cache
    H = weights["fwd.W_h"].shape[0]
    w_f, w_b = (tuple(w.astype(xs.dtype, copy=False) for w in _direction(weights, prefix))
                for prefix in ("fwd", "bwd"))
    dxs, dxs_b = _both(_direction_backward,
                       (w_f, _direction(grads, "fwd"), xs, fwd, douts[:, :, :H]),
                       (w_b, _direction(grads, "bwd"), xs[:, ::-1], bwd, douts[:, ::-1, H:]),
                       len(xs))
    dxs += dxs_b[:, ::-1]
    return dxs
