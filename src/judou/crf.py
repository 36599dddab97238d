"""Linear-chain CRF output layer.

A tag path is scored by per-position emissions plus pairwise transition scores,
with augmented START/STOP states carrying the boundary terms. All dynamic
programming runs in log space so length-100 sequences stay well-conditioned.

Tag indices are fixed as B=0, E=1, O=2; START=3 and STOP=4 only ever appear
inside the transition matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .nncore import Param

N_TAGS = 3
START = 3
STOP = 4
NEG_INF = -1.0e4  # finite stand-in for impossible transitions


@dataclass
class CrfParams:
    """(N_TAGS+2) x (N_TAGS+2) transition scores over tags plus START/STOP."""

    trans: Param = field(default_factory=lambda: new_transitions())

    @property
    def A(self) -> np.ndarray:
        return self.trans.value


def new_transitions() -> Param:
    a = np.zeros((N_TAGS + 2, N_TAGS + 2))
    a[:, START] = NEG_INF  # nothing enters START
    a[STOP, :] = NEG_INF   # nothing leaves STOP
    return Param.of(a, "crf.trans")


@dataclass
class TagPath:
    tags: np.ndarray
    score: float


def _check_tags(y, n_tags=N_TAGS):
    y = np.asarray(y, dtype=np.intp)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("tag path must be a non-empty 1-D array")
    if y.min() < 0 or y.max() >= n_tags:
        raise IndexError(f"tag index outside 0..{n_tags - 1}: {y}")
    return y


def path_score(P: np.ndarray, crf: CrfParams, y) -> float:
    """Score of one tag path: transitions (with START/STOP) plus emissions."""
    y = _check_tags(y)
    n = P.shape[0]
    if y.size != n:
        raise ValueError(f"path length {y.size} != sequence length {n}")
    A = crf.A
    s = A[START, y[0]] + A[y[-1], STOP]
    s += np.sum(A[y[:-1], y[1:]])
    s += np.sum(P[np.arange(n), y])
    return float(s)


def _logsumexp(x: np.ndarray, axis=None):
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else float(np.squeeze(out))


def _forward_alphas(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    alphas = np.empty((n, N_TAGS))
    alphas[0] = A[START, :N_TAGS] + P[0]
    for t in range(1, n):
        alphas[t] = _logsumexp(alphas[t - 1][:, None] + A[:N_TAGS, :N_TAGS], axis=0) + P[t]
    return alphas


def _backward_betas(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    betas = np.empty((n, N_TAGS))
    betas[-1] = A[:N_TAGS, STOP]
    for t in range(n - 2, -1, -1):
        betas[t] = _logsumexp(A[:N_TAGS, :N_TAGS] + (P[t + 1] + betas[t + 1])[None, :], axis=1)
    return betas


def log_partition(P: np.ndarray, crf: CrfParams) -> float:
    """log sum over all tag paths of exp(path_score), by the forward recursion."""
    alphas = _forward_alphas(P, crf.A)
    return float(_logsumexp(alphas[-1] + crf.A[:N_TAGS, STOP]))


def viterbi_decode(P: np.ndarray, crf: CrfParams) -> TagPath:
    """Best-scoring tag path; ties resolve to the lowest tag index at each
    backtrack step (so the returned path minimizes (y_n, ..., y_1) among optima)."""
    A = crf.A
    T = A[:N_TAGS, :N_TAGS]
    n = P.shape[0]
    score = A[START, :N_TAGS] + P[0]
    backptr = np.empty((n, N_TAGS), dtype=np.intp)
    for t in range(1, n):
        cand = score[:, None] + T
        cand.argmax(axis=0, out=backptr[t])  # argmax takes the first (lowest) index
        score = cand.max(axis=0) + P[t]
    final = score + A[:N_TAGS, STOP]
    last = int(np.argmax(final))
    tags = np.empty(n, dtype=np.intp)
    tags[-1] = last
    for t in range(n - 1, 0, -1):
        tags[t - 1] = backptr[t, tags[t]]
    return TagPath(tags=tags, score=float(final[last]))


def crf_nll(P: np.ndarray, crf: CrfParams, gold) -> tuple:
    """Negative log-likelihood of the gold path and its gradients.

    Returns (loss, dP, dA) where dP is (marginals - gold one-hot) and dA is
    (expected transition counts - gold transition counts), both from
    forward-backward. dA covers the full (N_TAGS+2)^2 matrix; cells for
    impossible transitions stay zero.
    """
    gold = _check_tags(gold)
    A = crf.A
    n = P.shape[0]
    if gold.size != n:
        raise ValueError(f"gold length {gold.size} != sequence length {n}")

    alphas = _forward_alphas(P, A)
    betas = _backward_betas(P, A)
    log_z = float(_logsumexp(alphas[-1] + A[:N_TAGS, STOP]))
    loss = log_z - path_score(P, crf, gold)

    # position marginals
    marg = np.exp(alphas + betas - log_z)
    dP = marg.copy()
    dP[np.arange(n), gold] -= 1.0

    dA = np.zeros_like(A)
    # interior transitions: expected minus observed counts
    for t in range(n - 1):
        xi = alphas[t][:, None] + A[:N_TAGS, :N_TAGS] + (P[t + 1] + betas[t + 1])[None, :] - log_z
        dA[:N_TAGS, :N_TAGS] += np.exp(xi)
        dA[gold[t], gold[t + 1]] -= 1.0
    # boundary transitions
    dA[START, :N_TAGS] += marg[0]
    dA[START, gold[0]] -= 1.0
    dA[:N_TAGS, STOP] += marg[-1]
    dA[gold[-1], STOP] -= 1.0
    return loss, dP, dA
