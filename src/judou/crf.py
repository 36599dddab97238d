"""Linear-chain CRF output layer over a batch of equal-length sequences.

A tag path is scored by per-position emissions plus pairwise transition scores,
with augmented START/STOP states carrying the boundary terms. Every dynamic
program is the one forward recursion, in log space so length-100 sequences stay
well-conditioned: log-sum-exp gives the partition function and, over the
reversed chain, the marginals' betas; max (the max-plus semiring) gives Viterbi.
Every function takes emissions P of shape (B, n, 3), the (5, 5) transition
matrix A and tag paths of shape (B, n), and returns one result per row.
`viterbi_decode` and `crf_nll` take float32 emissions as well and work on a
float64 copy: a step that mixed the dtypes would pay for a cast in each ufunc.

Tag indices are fixed as B=0, E=1, O=2; START=3 and STOP=4 only ever appear
inside the transition matrix.
"""

import numpy as np

N_TAGS = 3
START = 3
STOP = 4
NEG_INF = -1.0e4  # finite stand-in for impossible transitions


def new_transitions() -> np.ndarray:
    """(N_TAGS+2) x (N_TAGS+2) transition scores over tags plus START/STOP."""
    a = np.zeros((N_TAGS + 2, N_TAGS + 2))
    a[:, START] = NEG_INF  # nothing enters START
    a[STOP, :] = NEG_INF   # nothing leaves STOP
    return a


def _check_tags(P: np.ndarray, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.intp)
    if y.shape != P.shape[:2] or y.size == 0:
        raise ValueError(f"tag paths of shape {y.shape} for emissions of shape {P.shape}")
    if y.min() < 0 or y.max() >= N_TAGS:
        raise IndexError(f"tag index outside 0..{N_TAGS - 1}: {y}")
    return y


def _path_transitions(y: np.ndarray) -> tuple:
    """Every transition of each path, START and STOP included, as (from, to) of shape (B, n+1)."""
    ends = np.ones((y.shape[0], 1), dtype=np.intp)
    return np.hstack([START * ends, y]), np.hstack([y, STOP * ends])


def path_score(P: np.ndarray, A: np.ndarray, y) -> np.ndarray:
    """(B,) scores of the tag paths y: transitions (with START/STOP) plus emissions."""
    y = _check_tags(P, y)
    rows, steps = np.ogrid[:y.shape[0], :y.shape[1]]
    return A[_path_transitions(y)].sum(axis=1) + P[rows, steps, y].sum(axis=1)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)), axis=axis)


def _forward_alphas(P: np.ndarray, A: np.ndarray, reduce=_logsumexp) -> np.ndarray:
    """The one step loop: reduce is _logsumexp, or np.maximum.reduce for Viterbi."""
    alphas = np.empty_like(P)
    alphas[:, 0] = A[START, :N_TAGS] + P[:, 0]
    T = A[:N_TAGS, :N_TAGS]
    for t in range(1, P.shape[1]):
        np.add(reduce(alphas[:, t - 1, :, None] + T, axis=1), P[:, t], out=alphas[:, t])
    return alphas


def _backward_betas(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The forward recursion of the reversed chain, whose transitions are A
    transposed with START and STOP swapped, less the emissions it adds."""
    swap = [0, 1, 2, STOP, START]
    return _forward_alphas(P[:, ::-1], A.T[swap][:, swap])[:, ::-1] - P


def log_partition(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(B,) log sums over all tag paths of exp(path_score), by the forward recursion."""
    return _logsumexp(_forward_alphas(P, A)[:, -1] + A[:N_TAGS, STOP], axis=1)


def viterbi_decode(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(B, n) best-scoring tag paths; ties resolve to the lowest tag index at
    each backtrack step (so each path minimizes (y_n, ..., y_1) among optima)."""
    P = P.astype(np.float64, copy=False)
    alphas = _forward_alphas(P, A, np.maximum.reduce)  # np.max's wrapper: 1.3x at B=1
    # every step's backpointers at once, (B, n-1, to); argmax takes the first (lowest) index
    backptr = (alphas[:, :-1, :, None] + A[:N_TAGS, :N_TAGS]).argmax(axis=2).tolist()
    last = (alphas[:, -1] + A[:N_TAGS, STOP]).argmax(axis=1).tolist()
    # Python lists: one short backtrack per row beats per-step fancy indexing at B=1
    paths = []
    for steps, y in zip(backptr, last):
        path = [y]
        for back in reversed(steps):
            y = back[y]
            path.append(y)
        paths.append(path[::-1])
    return np.array(paths, dtype=np.intp)


def crf_nll(P: np.ndarray, A: np.ndarray, gold) -> tuple:
    """Negative log-likelihoods of the gold paths and their gradients.

    Returns (loss, dP, dA): loss (B,) per row; dP (B, n, 3) is (marginals -
    gold one-hot) per row; dA is (expected transition counts - gold transition
    counts) summed over the rows, both from forward-backward. dA covers the
    full (N_TAGS+2)^2 matrix; cells for impossible transitions stay zero.
    """
    P = P.astype(np.float64, copy=False)
    gold = _check_tags(P, gold)
    alphas = _forward_alphas(P, A)
    betas = _backward_betas(P, A)
    log_z = _logsumexp(alphas[:, -1] + A[:N_TAGS, STOP], axis=1)
    loss = log_z - path_score(P, A, gold)

    marg = np.exp(alphas + betas - log_z[:, None, None])  # position marginals
    xi = (alphas[:, :-1, :, None] + A[:N_TAGS, :N_TAGS]
          + (P[:, 1:] + betas[:, 1:])[:, :, None, :] - log_z[:, None, None, None])
    # expected minus gold transition counts, START and STOP included
    dA = np.zeros_like(A)
    dA[START, :N_TAGS] = marg[:, 0].sum(axis=0)
    dA[:N_TAGS, STOP] = marg[:, -1].sum(axis=0)
    dA[:N_TAGS, :N_TAGS] = np.exp(xi).sum(axis=(0, 1))
    np.add.at(dA, _path_transitions(gold), -1.0)
    # marginals minus the gold one-hot
    rows, steps = np.ogrid[:gold.shape[0], :gold.shape[1]]
    marg[rows, steps, gold] -= 1.0
    return loss, marg, dA
