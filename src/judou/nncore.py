"""Numeric substrate shared by every model module.

Weights, gradients and the SGD step are float64 numpy; training and
decoding run the BiLSTM and the emission in float32, each layer casting the
weights it reads, so every weight must fit float32's range (fits_float32),
and CBOW pretraining keeps its projection in float32. Backpropagation is
hand-derived per module, and the tests check each module against central
finite differences. The seeded generator is PCG64 throughout, which keeps
training bit-reproducible. The configs, build_model and make_rng check each
size, epoch count and seed they take with check_int, and the configs each
rate and norm with check_real; the entry points check each argument's type
with check_type.

A model's weights are one dict of plain arrays keyed by name. Gradients are
a second dict, owned by the training loop, with the names of the weights it
trains, each array shaped like its weight; the backward passes add into it
and sgd_step applies and zeroes it in its own key order.
"""

import numpy as np

# add_low_rank's scratch block: small enough to stay in cache between the
# product and the add, large enough that per-block overhead does not show
OUTER_BLOCK_BYTES = 400_000


class NumericError(ValueError):
    """A parameter produced non-finite values."""


def check_int(name: str, value: int, low: int) -> int:
    """value itself if it is an int (a numpy integer included, a bool not) of
    at least low; name is the input's name in the error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def check_type(name: str, value, kind: type) -> None:
    """Raise a ValueError naming the input unless value is an instance of kind."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r:.60}")


def check_real(name: str, value: float) -> float:
    """value itself if it is an int or a float, numpy's included, a bool not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def fits_float32(m: np.ndarray) -> bool:
    """Whether float32 can hold every value of m, the rule for every weight,
    as the passes cast the weights to float32; NaN fails both tests."""
    limit = np.finfo(np.float32).max
    return not m.size or bool(-limit <= m.min() and m.max() <= limit)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(check_int("seed", seed, 0)))


# ---------------------------------------------------------------------------
# elementary ops

def add_low_rank(M: np.ndarray, A: np.ndarray, B: np.ndarray, scale: float) -> None:
    """M += scale * (A.T @ B) for A (k, rows of M) and B (k, columns of M), in
    row blocks through one scratch buffer of OUTER_BLOCK_BYTES, so no
    temporary of M's size is made; all three share one dtype. At k = 1 it rounds
    entry by entry as the dense `G = zeros; G += outer(a, b); M += scale * G`
    does, so with scale = -lr it is the SGD step `M -= lr * G` bit for bit."""
    rows = max(1, OUTER_BLOCK_BYTES // (B.shape[1] * M.itemsize))
    buf = np.empty((min(rows, len(M)), B.shape[1]), M.dtype)
    for start in range(0, len(M), rows):
        # the product sums from +0.0, as G += outer did into a zeroed G, so a
        # zero product of either sign is +0.0 there too
        blk = np.matmul(A[:, start:start + rows].T, B, out=buf[:len(M) - start])
        blk *= scale
        M[start:start + rows] += blk


def glorot_uniform(shape, rng: np.random.Generator) -> np.ndarray:
    fan_in, fan_out = shape
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
    zero the gradients. Returns the clip factor. A weight stepped beyond
    float32's range, to infinity included, is a NumericError, not a warning."""
    scale = clip_gradients(grads, clip_norm)
    with np.errstate(over="ignore"):
        for name, g in grads.items():
            weights[name] -= learning_rate * g
            g.fill(0.0)
            if not fits_float32(weights[name]):
                raise NumericError(f"parameter {name!r} left float32's range; "
                                   f"try a learning rate below {learning_rate:g}")
    return scale


def dropout_mask(shape, rate: float, rng: np.random.Generator, dtype=np.float64) -> np.ndarray:
    """Inverted-dropout mask in dtype: zeros with probability rate, else
    1/(1-rate), computed in float64 and rounded once to dtype."""
    if not 0 <= rate < 1:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    return np.multiply(rng.random(shape) >= rate, 1.0 / (1.0 - rate), dtype=dtype)
