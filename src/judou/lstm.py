"""Peephole LSTM cell and its bidirectional sequence wrapper.

The peephole connections are full H x H matrices, taken literally from the
gate definitions rather than the diagonal form many implementations use.
The output gate peeks at the freshly computed cell state, not the previous one.

Every pass runs over a (B, n, d) batch of equal-length sequences, each
starting from a zero state; there is no separate single-sequence path.
"""

from dataclasses import dataclass, field

import numpy as np

from .nncore import Param, glorot_uniform, sigmoid


@dataclass
class LstmParams:
    """Weights for one direction: input/forget/cell/output blocks."""

    d_in: int
    hidden: int
    W_xi: Param = field(repr=False, default=None)
    W_hi: Param = field(repr=False, default=None)
    W_ci: Param = field(repr=False, default=None)
    b_i: Param = field(repr=False, default=None)
    W_xf: Param = field(repr=False, default=None)
    W_hf: Param = field(repr=False, default=None)
    W_cf: Param = field(repr=False, default=None)
    b_f: Param = field(repr=False, default=None)
    W_xc: Param = field(repr=False, default=None)
    W_hc: Param = field(repr=False, default=None)
    b_c: Param = field(repr=False, default=None)
    W_xo: Param = field(repr=False, default=None)
    W_ho: Param = field(repr=False, default=None)
    W_co: Param = field(repr=False, default=None)
    b_o: Param = field(repr=False, default=None)

    def params(self) -> list:
        return [
            self.W_xi, self.W_hi, self.W_ci, self.b_i,
            self.W_xf, self.W_hf, self.W_cf, self.b_f,
            self.W_xc, self.W_hc, self.b_c,
            self.W_xo, self.W_ho, self.W_co, self.b_o,
        ]


def new_lstm_params(d_in: int, hidden: int, rng: np.random.Generator, prefix: str = "lstm") -> LstmParams:
    def mat(shape, name):
        return Param.of(glorot_uniform(shape, rng), f"{prefix}.{name}")

    def bias(name):
        return Param.zeros(hidden, f"{prefix}.{name}")

    return LstmParams(
        d_in=d_in, hidden=hidden,
        W_xi=mat((d_in, hidden), "W_xi"), W_hi=mat((hidden, hidden), "W_hi"),
        W_ci=mat((hidden, hidden), "W_ci"), b_i=bias("b_i"),
        W_xf=mat((d_in, hidden), "W_xf"), W_hf=mat((hidden, hidden), "W_hf"),
        W_cf=mat((hidden, hidden), "W_cf"), b_f=bias("b_f"),
        W_xc=mat((d_in, hidden), "W_xc"), W_hc=mat((hidden, hidden), "W_hc"), b_c=bias("b_c"),
        W_xo=mat((d_in, hidden), "W_xo"), W_ho=mat((hidden, hidden), "W_ho"),
        W_co=mat((hidden, hidden), "W_co"), b_o=bias("b_o"),
    )


@dataclass
class BiLstmParams:
    forward: LstmParams
    backward: LstmParams

    @property
    def hidden(self) -> int:
        return self.forward.hidden

    def params(self) -> list:
        return self.forward.params() + self.backward.params()


def new_bilstm_params(d_in: int, hidden: int, rng: np.random.Generator) -> BiLstmParams:
    return BiLstmParams(
        forward=new_lstm_params(d_in, hidden, rng, prefix="fwd"),
        backward=new_lstm_params(d_in, hidden, rng, prefix="bwd"),
    )


# ---------------------------------------------------------------------------
# cell forward/backward over a (B, ...) batch

def _cell_forward(p: LstmParams, x, h_prev, c_prev) -> dict:
    i = sigmoid(x @ p.W_xi.value + h_prev @ p.W_hi.value + c_prev @ p.W_ci.value + p.b_i.value)
    f = sigmoid(x @ p.W_xf.value + h_prev @ p.W_hf.value + c_prev @ p.W_cf.value + p.b_f.value)
    g = np.tanh(x @ p.W_xc.value + h_prev @ p.W_hc.value + p.b_c.value)
    c = f * c_prev + i * g
    o = sigmoid(x @ p.W_xo.value + h_prev @ p.W_ho.value + c @ p.W_co.value + p.b_o.value)
    tc = np.tanh(c)
    h = o * tc
    return {"x": x, "h_prev": h_prev, "c_prev": c_prev,
            "i": i, "f": f, "g": g, "c": c, "o": o, "tc": tc, "h": h}


def _cell_backward(p: LstmParams, cache: dict, dh, dc_in):
    x, h_prev, c_prev = cache["x"], cache["h_prev"], cache["c_prev"]
    i, f, g, c, o, tc = cache["i"], cache["f"], cache["g"], cache["c"], cache["o"], cache["tc"]

    do = dh * tc
    da_o = do * o * (1.0 - o)
    # c receives gradient through h, through the future step, and through the
    # output gate's peephole on the new cell state
    dc = dh * o * (1.0 - tc * tc) + dc_in + da_o @ p.W_co.value.T
    di = dc * g
    da_i = di * i * (1.0 - i)
    df = dc * c_prev
    da_f = df * f * (1.0 - f)
    dg = dc * i
    da_g = dg * (1.0 - g * g)

    p.W_xi.grad += x.T @ da_i
    p.W_hi.grad += h_prev.T @ da_i
    p.W_ci.grad += c_prev.T @ da_i
    p.b_i.grad += da_i.sum(axis=0)
    p.W_xf.grad += x.T @ da_f
    p.W_hf.grad += h_prev.T @ da_f
    p.W_cf.grad += c_prev.T @ da_f
    p.b_f.grad += da_f.sum(axis=0)
    p.W_xc.grad += x.T @ da_g
    p.W_hc.grad += h_prev.T @ da_g
    p.b_c.grad += da_g.sum(axis=0)
    p.W_xo.grad += x.T @ da_o
    p.W_ho.grad += h_prev.T @ da_o
    p.W_co.grad += c.T @ da_o
    p.b_o.grad += da_o.sum(axis=0)

    dx = da_i @ p.W_xi.value.T + da_f @ p.W_xf.value.T + da_g @ p.W_xc.value.T + da_o @ p.W_xo.value.T
    dh_prev = da_i @ p.W_hi.value.T + da_f @ p.W_hf.value.T + da_g @ p.W_hc.value.T + da_o @ p.W_ho.value.T
    dc_prev = dc * f + da_i @ p.W_ci.value.T + da_f @ p.W_cf.value.T
    return dx, dh_prev, dc_prev


# ---------------------------------------------------------------------------
# sequence passes (batched)

def _direction_forward(p: LstmParams, xs, reverse: bool, keep_cache: bool):
    batch, n, _ = xs.shape
    h = np.zeros((batch, p.hidden))
    c = np.zeros((batch, p.hidden))
    caches = [None] * n
    hs = np.empty((batch, n, p.hidden))
    steps = range(n - 1, -1, -1) if reverse else range(n)
    for t in steps:
        cache = _cell_forward(p, xs[:, t, :], h, c)
        caches[t] = cache if keep_cache else None
        h, c = cache["h"], cache["c"]
        hs[:, t, :] = h
    return hs, caches


def _direction_backward(p: LstmParams, caches, dhs, reverse: bool):
    batch, n, _ = dhs.shape
    dxs = np.zeros((batch, n, p.d_in))
    dh_next = np.zeros((batch, p.hidden))
    dc_next = np.zeros((batch, p.hidden))
    steps = range(n) if reverse else range(n - 1, -1, -1)
    for t in steps:
        dx, dh_next, dc_next = _cell_backward(p, caches[t], dhs[:, t, :] + dh_next, dc_next)
        dxs[:, t, :] = dx
    return dxs


def bilstm_forward_batch(p: BiLstmParams, xs: np.ndarray, keep_cache: bool = True):
    """xs (B, n, d_in) -> outputs (B, n, 2H) plus the cache for backprop, or
    None in place of it with keep_cache False (each step's gates freed at once)."""
    hs_f, caches_f = _direction_forward(p.forward, xs, False, keep_cache)
    hs_b, caches_b = _direction_forward(p.backward, xs, True, keep_cache)
    out = np.concatenate([hs_f, hs_b], axis=2)
    return out, (caches_f, caches_b) if keep_cache else None


def bilstm_backward_batch(p: BiLstmParams, cache, douts: np.ndarray) -> np.ndarray:
    """Accumulate parameter gradients; returns gradients w.r.t. the inputs."""
    caches_f, caches_b = cache
    H = p.hidden
    dxs = _direction_backward(p.forward, caches_f, douts[:, :, :H], reverse=False)
    dxs += _direction_backward(p.backward, caches_b, douts[:, :, H:], reverse=True)
    return dxs

