"""Numeric substrate shared by every model module.

Everything is float64 numpy; backpropagation is hand-derived per module, and
the tests check each module against central finite differences. The seeded
generator is PCG64 throughout, which keeps training bit-reproducible.

A model's weights are one dict of plain arrays keyed by name. Gradients are
a second dict, owned by the training loop, with the names of the weights it
trains, each array shaped like its weight; the backward passes add into it
and sgd_step applies and zeroes it in its own key order.
"""

import numpy as np

# add_outer's scratch block: small enough to stay in cache between the
# product and the add, large enough that per-block overhead does not show
OUTER_BLOCK_BYTES = 400_000


class NumericError(ValueError):
    """A parameter produced non-finite values."""


def check_seed(seed: int) -> int:
    """seed itself if it is a non-negative int (a numpy integer included)."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


# ---------------------------------------------------------------------------
# elementary ops

def sigmoid(x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Logistic function in its tanh form, 0.5 + 0.5 tanh(x / 2): it cannot
    overflow and needs no masks. out may be x itself."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def add_outer(M: np.ndarray, a: np.ndarray, b: np.ndarray, scale: float) -> None:
    """M += scale * outer(a, b), in row blocks through one scratch buffer of
    OUTER_BLOCK_BYTES, so no (len(a), len(b)) temporary is made. Entry by
    entry it rounds as the dense `G = zeros; G += outer(a, b); M += scale * G`
    does, so with scale = -lr it is the SGD step `M -= lr * G` bit for bit."""
    rows = max(1, OUTER_BLOCK_BYTES // (b.size * M.itemsize))
    buf = np.empty((min(rows, len(a)), b.size))
    for start in range(0, len(a), rows):
        # einsum writes 0 + a_i * b_j, as G += outer did into a zeroed G (a
        # zero product is +0.0), without np.multiply.outer's per-row overhead
        blk = np.einsum("i,j->ij", a[start:start + rows], b, out=buf[:len(a) - start])
        blk *= scale
        M[start:start + rows] += blk


def glorot_uniform(shape, rng: np.random.Generator) -> np.ndarray:
    fan_in, fan_out = (shape[0], shape[1]) if len(shape) == 2 else (shape[0], shape[0])
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# optimization

def clip_gradients(grads: dict, clip_norm: float) -> float:
    """Scale all gradients in place so their global norm, summed in key
    order, is at most clip_norm.

    Returns the applied scale factor (1.0 when no clipping was needed).
    """
    if clip_norm <= 0:
        raise ValueError(f"clip_norm must be > 0, got {clip_norm}")
    total = 0.0
    for name, g in grads.items():
        sq = float(np.sum(g * g))
        if not np.isfinite(sq):
            raise NumericError(f"non-finite gradient in parameter {name!r}")
        total += sq
    norm = np.sqrt(total)
    if norm <= clip_norm:
        return 1.0
    scale = clip_norm / norm
    for g in grads.values():
        g *= scale
    return scale


def sgd_step(weights: dict, grads: dict, learning_rate: float, clip_norm: float) -> float:
    """Clip, apply weights[name] -= lr * grads[name] for every name in grads,
    zero the gradients. Returns the clip factor."""
    scale = clip_gradients(grads, clip_norm)
    for name, g in grads.items():
        weights[name] -= learning_rate * g
        g.fill(0.0)
    return scale


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability rate, else 1/(1-rate)."""
    if not 0 <= rate < 1:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0:
        return np.ones(shape)
    return (rng.random(shape) >= rate) / (1.0 - rate)
