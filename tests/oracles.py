"""Independent reimplementations with explicit loops: brute-force CRF oracles
that check the dynamic-programming routines by exhaustive enumeration, the
stepwise Viterbi that checks the max-plus one at lengths past enumeration, the
unfused per-gate LSTM cell that checks the fused one, the full-scale fused
step that the half-scale one must match bit for bit, the dense CBOW step
that checks the sparse one, the float64 CBOW model and its slot-by-slot
gradients that the central-difference gradient checker reads, the tag
grammar, and the character-loop text rules that the regular expressions of
`judou.corpus` replaced."""

import functools
import itertools
import re

import numpy as np

from judou.corpus import (DEFAULT_PUNCT, UNIT_SIZE, UNSURE_CHAR, LabeledSequence, PunctConfig,
                          Vocab)
from judou.crf import N_TAGS, START, STOP, _backward_betas, _logsumexp
from judou.embedding import _uniform, cbow_loss_and_grads, encode_chars, untrained_embeddings
from judou import lstm
from judou.lstm import LSTM_NAMES
from judou.nncore import make_rng


def all_paths(n):
    return itertools.product(range(N_TAGS), repeat=n)


def oracle_path_score(P, A, y):
    s = A[START][y[0]] + A[y[-1]][STOP]
    for i in range(len(y) - 1):
        s += A[y[i]][y[i + 1]]
    for i, t in enumerate(y):
        s += P[i][t]
    return float(s)


def oracle_log_partition(P, A):
    scores = [oracle_path_score(P, A, y) for y in all_paths(P.shape[0])]
    return float(np.logaddexp.reduce(scores))


def oracle_viterbi(P, A, tol=1e-12):
    """Best path under the decoder's tie rule: among (near-)optimal paths,
    the one minimizing (y_n, ..., y_1), i.e. lowest tag index chosen at each
    backtrack step from the end."""
    scored = [(oracle_path_score(P, A, y), y) for y in all_paths(P.shape[0])]
    best = max(s for s, _ in scored)
    ties = [y for s, y in scored if s >= best - tol]
    return min(ties, key=lambda y: tuple(reversed(y)))


def stepwise_viterbi(P, A):
    """Viterbi with its own step loop over (B, to, from) candidates and a
    (n, B, 3) backpointer buffer, apart from crf's forward recursion: the
    bytewise reference for viterbi_decode's paths at any length, ties included."""
    P = P.astype(np.float64, copy=False)
    T_to_from = A[:N_TAGS, :N_TAGS].T
    batch, n, _ = P.shape
    score = A[START, :N_TAGS] + P[:, 0]
    backptr = np.empty((n, batch, N_TAGS), dtype=np.intp)
    for t in range(1, n):
        cand = score[:, None, :] + T_to_from  # (B, to, from), reduced over the last axis
        cand.argmax(axis=2, out=backptr[t])  # argmax takes the first (lowest) index
        score = cand.max(axis=2) + P[:, t]
    last = (score + A[:N_TAGS, STOP]).argmax(axis=1).tolist()
    paths = []
    for steps, y in zip(backptr.transpose(1, 0, 2).tolist(), last):
        path = [y]
        for t in range(n - 1, 0, -1):
            y = steps[t][y]
            path.append(y)
        paths.append(path[::-1])
    return np.array(paths, dtype=np.intp)


def oracle_marginals(P, A):
    """(position marginals n x 3, transition marginals 5 x 5) by enumeration."""
    n = P.shape[0]
    paths = list(all_paths(n))
    scores = np.array([oracle_path_score(P, A, y) for y in paths])
    weights = np.exp(scores - np.logaddexp.reduce(scores))
    marg = np.zeros((n, N_TAGS))
    trans = np.zeros((N_TAGS + 2, N_TAGS + 2))
    for y, w in zip(paths, weights):
        for i, t in enumerate(y):
            marg[i][t] += w
        trans[START][y[0]] += w
        for i in range(n - 1):
            trans[y[i]][y[i + 1]] += w
        trans[y[-1]][STOP] += w
    return marg, trans


def oracle_gradients(P, A, gold):
    """crf_nll's (dP, dA) for one sequence: marginals minus the gold one-hot,
    expected minus gold transition counts."""
    marg, trans = oracle_marginals(P, A)
    for i, t in enumerate(gold):
        marg[i][t] -= 1.0
    for prev, nxt in zip((START,) + tuple(gold), tuple(gold) + (STOP,)):
        trans[prev][nxt] -= 1.0
    return marg, trans


def log_partition_reverse(P, A):
    """(B,) log Z from the backward recursion that crf_nll uses, as a
    cross-check on the forward one."""
    betas = _backward_betas(P, A)
    return _logsumexp(A[START, :N_TAGS] + P[:, 0] + betas[:, 0], axis=1)


def random_crf(rng, scale=1.0) -> np.ndarray:
    """Random transitions on the structurally possible cells only, the others
    (the START column and the STOP row, which nothing reads) zero."""
    a = np.zeros((N_TAGS + 2, N_TAGS + 2))
    a[:N_TAGS, :N_TAGS] = rng.normal(scale=scale, size=(N_TAGS, N_TAGS))
    a[START, :N_TAGS] = rng.normal(scale=scale, size=N_TAGS)
    a[:N_TAGS, STOP] = rng.normal(scale=scale, size=N_TAGS)
    return a


# ---------------------------------------------------------------------------
# LSTM oracle: the unfused peephole cell, one gate and one step at a time

GATES = "ifco"  # input, forget, cell candidate, output: the fused column order


def lstm_gate_weights(weights: dict, prefix: str) -> dict:
    """Per-gate blocks (views) of one direction's fused weights, by unfused names."""
    W_x, W_h, W_c, W_co, b = (weights[f"{prefix}.{name}"] for name in LSTM_NAMES)
    H = W_h.shape[0]
    w = {"W_ci": W_c[:, :H], "W_cf": W_c[:, H:], "W_co": W_co}
    for k, gate in enumerate(GATES):
        cols = slice(k * H, (k + 1) * H)
        w[f"W_x{gate}"] = W_x[:, cols]
        w[f"W_h{gate}"] = W_h[:, cols]
        w[f"b_{gate}"] = b[0, cols]
    return w


def fuse_gate_grads(g: dict, prefix: str) -> dict:
    """Per-gate gradients assembled into one direction's fused gradient dict."""
    fused = [np.hstack([g[f"W_x{k}"] for k in GATES]),
             np.hstack([g[f"W_h{k}"] for k in GATES]),
             np.hstack([g["W_ci"], g["W_cf"]]),
             g["W_co"],
             np.concatenate([g[f"b_{k}"] for k in GATES])[None]]
    return {f"{prefix}.{name}": a for name, a in zip(LSTM_NAMES, fused)}


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


def oracle_cell_forward(w, x, h_prev, c_prev) -> dict:
    i = _logistic(x @ w["W_xi"] + h_prev @ w["W_hi"] + c_prev @ w["W_ci"] + w["b_i"])
    f = _logistic(x @ w["W_xf"] + h_prev @ w["W_hf"] + c_prev @ w["W_cf"] + w["b_f"])
    g = np.tanh(x @ w["W_xc"] + h_prev @ w["W_hc"] + w["b_c"])
    c = f * c_prev + i * g
    o = _logistic(x @ w["W_xo"] + h_prev @ w["W_ho"] + c @ w["W_co"] + w["b_o"])
    tc = np.tanh(c)
    return {"x": x, "h_prev": h_prev, "c_prev": c_prev,
            "i": i, "f": f, "g": g, "c": c, "o": o, "tc": tc, "h": o * tc}


def oracle_cell_backward(w, grads, cache, dh, dc_in):
    """Accumulate per-gate gradients into grads; returns (dx, dh_prev, dc_prev)."""
    x, h_prev, c_prev = cache["x"], cache["h_prev"], cache["c_prev"]
    i, f, g, c, o, tc = cache["i"], cache["f"], cache["g"], cache["c"], cache["o"], cache["tc"]
    da_o = dh * tc * o * (1.0 - o)
    # c receives gradient through h, through the future step, and through the
    # output gate's peephole on the new cell state
    dc = dh * o * (1.0 - tc * tc) + dc_in + da_o @ w["W_co"].T
    da = {"i": dc * g * i * (1.0 - i), "f": dc * c_prev * f * (1.0 - f),
          "c": dc * i * (1.0 - g * g), "o": da_o}
    for k in GATES:
        grads[f"W_x{k}"] += x.T @ da[k]
        grads[f"W_h{k}"] += h_prev.T @ da[k]
        grads[f"b_{k}"] += da[k].sum(axis=0)
    grads["W_ci"] += c_prev.T @ da["i"]
    grads["W_cf"] += c_prev.T @ da["f"]
    grads["W_co"] += c.T @ da["o"]
    dx = sum(da[k] @ w[f"W_x{k}"].T for k in GATES)
    dh_prev = sum(da[k] @ w[f"W_h{k}"].T for k in GATES)
    dc_prev = dc * f + da["i"] @ w["W_ci"].T + da["f"] @ w["W_cf"].T
    return dx, dh_prev, dc_prev


def oracle_lstm_direction(weights, prefix, xs, dhs, reverse: bool):
    """One direction over xs (B, n, d) step by step from a zero state, then
    back again: (hs, dxs, fused weight gradients by name)."""
    w = lstm_gate_weights(weights, prefix)
    grads = {k: np.zeros_like(v) for k, v in w.items()}
    batch, n, _ = xs.shape
    H = w["W_co"].shape[0]
    steps = list(range(n - 1, -1, -1) if reverse else range(n))
    h = c = np.zeros((batch, H))
    hs = np.zeros((batch, n, H))
    caches = [None] * n
    for t in steps:
        caches[t] = oracle_cell_forward(w, xs[:, t], h, c)
        h, c = caches[t]["h"], caches[t]["c"]
        hs[:, t] = h
    dxs = np.zeros_like(xs)
    dh = dc = np.zeros((batch, H))
    for t in reversed(steps):
        dxs[:, t], dh, dc = oracle_cell_backward(w, grads, caches[t], dhs[:, t] + dh, dc)
    return hs, dxs, fuse_gate_grads(grads, prefix)


# ---------------------------------------------------------------------------
# the fused step on full-scale weights: sigmoid in its tanh form, products by @

def _sigmoid(x):
    """0.5 + 0.5 tanh(x / 2), in place."""
    np.multiply(x, 0.5, out=x)
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5


def full_scale_direction_forward(w, xs, hs):
    """lstm._direction_forward as it was before the half-scale pass copy, on
    one direction's weights w in xs's dtype."""
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
        _sigmoid(i_f)
        np.tanh(g, out=g)
        c = np.multiply(f, c, out=C[:, t])
        c += i * g
        o += c @ W_co
        _sigmoid(o)
        h = np.multiply(o, np.tanh(c, out=TC[:, t]), out=hs[:, t])
    return A, C, TC


def _full_scale(weights, prefix, dtype) -> tuple:
    return tuple(weights[f"{prefix}.{name}"].astype(dtype, copy=False) for name in LSTM_NAMES)


def full_scale_bilstm_forward_batch(weights, xs):
    """bilstm_forward_batch on full_scale_direction_forward, with the weights
    cast to xs's dtype as the float32 passes once cast them."""
    H = weights["fwd.W_h"].shape[0]
    out = np.empty(xs.shape[:2] + (2 * H,), xs.dtype)
    fwd, bwd = lstm._both(full_scale_direction_forward,
                          (_full_scale(weights, "fwd", xs.dtype), xs, out[:, :, :H]),
                          (_full_scale(weights, "bwd", xs.dtype), xs[:, ::-1], out[:, ::-1, H:]),
                          len(xs))
    return out, (xs, fwd, bwd)


def full_scale_bilstm_backward_batch(weights, grads, cache, douts):
    """bilstm_backward_batch with the weights cast, at full scale, to the
    cache's dtype here."""
    xs, fwd, bwd = cache
    H = weights["fwd.W_h"].shape[0]
    dxs, dxs_b = lstm._both(lstm._direction_backward,
                            (_full_scale(weights, "fwd", xs.dtype), lstm._direction(grads, "fwd"),
                             xs, fwd, douts[:, :, :H]),
                            (_full_scale(weights, "bwd", xs.dtype), lstm._direction(grads, "bwd"),
                             xs[:, ::-1], bwd, douts[:, ::-1, H:]), len(xs))
    dxs += dxs_b[:, ::-1]
    return dxs


# ---------------------------------------------------------------------------
# CBOW pretraining with the dense update, one step per batch of positions

def new_cbow_model(vocab, radtable, cfg, dtype=np.float64) -> tuple:
    """(embeddings, projection): the untrained embeddings, then the
    (|V|, 2N * (d_char + d_radical)) projection in dtype, from one generator
    seeded cfg.seed, as train_embeddings draws them with dtype float32."""
    rng = make_rng(cfg.seed)
    emb = untrained_embeddings(vocab, radtable, cfg, rng)
    return emb, _uniform(rng, vocab.size, 2 * cfg.window * cfg.d_total, dtype)


def cbow_context_slots(enc, center, window) -> list:
    """(char row, radical row) of each context slot, left to right; slots
    off the unit take PAD and the no-radical row 0."""
    slots = [*range(center - window, center), *range(center + 1, center + window + 1)]
    n = len(enc.char_ids)
    return [(int(enc.char_ids[p]), int(enc.rad_ids[p])) if 0 <= p < n else (Vocab.PAD, 0)
            for p in slots]


def cbow_slot_rows(enc, center, window) -> tuple:
    """cbow_context_slots as the (2N,) char rows and (2N,) radical rows that
    cbow_loss_and_grads takes."""
    chars, rads = zip(*cbow_context_slots(enc, center, window))
    return np.array(chars, dtype=np.intp), np.array(rads, dtype=np.intp)


def cbow_step(emb, projection, enc, center) -> tuple:
    """cbow_loss_and_grads at one center of enc, its context rows built slot by slot."""
    chars, rads = cbow_slot_rows(enc, center, emb.config.window)
    return cbow_loss_and_grads(emb, projection, chars, rads, int(enc.char_ids[center]))


def dense_cbow_forward(emb, projection, centers) -> tuple:
    """The CBOW forward at a batch of (enc, center) pairs: (losses, context
    vectors H, softmax probs), a row each. Each row of H is put together slot
    by slot and cast to the projection's dtype for one product with it, whose
    logits are upcast to float64; the softmax repeats the shipped op sequence,
    so that its bits match."""
    H = np.array([np.concatenate([np.concatenate([emb.char_vectors[cid], emb.radical_vectors[rid]])
                                  for cid, rid in cbow_context_slots(enc, center, emb.config.window)])
                  for enc, center in centers])
    logits = (projection @ H.astype(projection.dtype).T).T.astype(np.float64, order="C")
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    targets = [int(enc.char_ids[center]) for enc, center in centers]
    return -np.log(probs[np.arange(len(centers)), targets]), H, probs


def dense_cbow_step(emb, projection, centers) -> np.ndarray:
    """One batch of centers' forward and backward into zeroed full-size
    gradients of all three matrices, the (|V|, 2N*d) projection's included,
    summed over the batch, then value -= lr * grad over each; returns the
    losses. The projection's gradient and its product with dlogits are in the
    projection's dtype, H and dlogits cast to it."""
    cfg = emb.config
    d, d_c = cfg.d_total, cfg.d_char
    values = (emb.char_vectors, emb.radical_vectors, projection)
    g_char, g_rad, g_proj = (np.zeros_like(v) for v in values)
    losses, H, dlogits = dense_cbow_forward(emb, projection, centers)
    for b, (enc, center) in enumerate(centers):
        dlogits[b, int(enc.char_ids[center])] -= 1.0
    dlogits, H = (a.astype(projection.dtype) for a in (dlogits, H))
    g_proj += dlogits.T @ H
    dH = dlogits @ projection
    for b, (enc, center) in enumerate(centers):
        for slot, (cid, rid) in enumerate(cbow_context_slots(enc, center, cfg.window)):
            g_char[cid] += dH[b, slot * d:slot * d + d_c]
            g_rad[rid] += dH[b, slot * d + d_c:(slot + 1) * d]
    for v, g in zip(values, (g_char, g_rad, g_proj)):
        v -= cfg.learning_rate * g
    return losses


def dense_train_embeddings(texts, vocab, radtable, cfg, dtype=np.float32, batch=1):
    """CBOW SGD over every position in corpus order, one dense step per batch
    consecutive positions, a batch running on across unit ends, with the
    projection in dtype. Returns (char vectors, radical vectors, per-epoch
    mean losses)."""
    emb, projection = new_cbow_model(vocab, radtable, cfg, dtype)
    encoded = [encode_chars(t, vocab, radtable) for t in texts]
    centers = [(enc, center) for enc in encoded for center in range(len(enc.char_ids))]
    losses = []
    for _ in range(cfg.epochs):
        total = 0.0
        for start in range(0, len(centers), batch):
            total += float(dense_cbow_step(emb, projection, centers[start:start + batch]).sum())
        losses.append(total / len(centers))
    return emb.char_vectors, emb.radical_vectors, losses


def cbow_grad_params(emb, projection, enc, center) -> tuple:
    """cbow_loss_and_grads at one center, for grad_check: (weights, grads),
    the weights being the model's own char, radical and projection arrays
    (shared, not copied) and the grads filled slot by slot from dh, and with
    outer(dlogits, h)."""
    _, dlogits, h, dh = cbow_step(emb, projection, enc, center)
    weights = {"cbow.char_vectors": emb.char_vectors,
               "cbow.radical_vectors": emb.radical_vectors,
               "cbow.projection": projection}
    grads = {name: np.zeros_like(w) for name, w in weights.items()}
    chars, rads, proj = grads.values()
    d_c = emb.config.d_char
    for slot, (cid, rid) in enumerate(cbow_context_slots(enc, center, emb.config.window)):
        chars[cid] += dh[slot, :d_c]
        rads[rid] += dh[slot, d_c:]
    proj += np.outer(dlogits, h)
    return weights, grads


# ---------------------------------------------------------------------------
# gradient checker: the safety net for every hand-derived backward pass

def grad_check(f, weights: dict, grads: dict, epsilon: float = 1e-5) -> float:
    """Compare the analytic gradients in grads against central finite
    differences of the scalar function f in the weights of the same names.

    f must recompute the loss from the current weights and have no lasting
    side effects. Returns the worst relative error
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    analytic = {name: g.copy() for name, g in grads.items()}
    worst = 0.0
    for name, a in analytic.items():
        flat = weights[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = f()
            flat[i] = orig - epsilon
            f_minus = f()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            ana = a.reshape(-1)[i]
            err = abs(ana - numeric) / max(1e-8, abs(ana) + abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# tag grammar

_TAG_GRAMMAR = re.compile(r"(?:BO*E|E)*(?:BO*)?")


def is_valid_tag_sequence(tags: str) -> bool:
    """True when tags decompose into complete sentences plus an optional open tail."""
    return _TAG_GRAMMAR.fullmatch(tags) is not None


# ---------------------------------------------------------------------------
# text rules, one character at a time

_HAN_RANGES = (
    (0x3400, 0x4DBF),  # extension A
    (0x4E00, 0x9FFF),  # unified ideographs
    (0xF900, 0xFAFF),  # compatibility ideographs
    (0x20000, 0x2EE5F),  # extensions B..F and I
    (0x2F800, 0x2FA1F),  # compatibility ideographs supplement
    (0x30000, 0x323AF),  # extensions G and H
)


def is_han(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _HAN_RANGES)


def normalize_text(raw: str, punct: PunctConfig = DEFAULT_PUNCT) -> str:
    """Strip everything but Han characters, '□', and stop marks.

    Runs of consecutive stop marks collapse to the first one.
    """
    out = []
    for ch in raw:
        if ch in punct.stops:
            if out and out[-1] in punct.stops:
                continue
            out.append(ch)
        elif is_han(ch) or ch == UNSURE_CHAR:
            out.append(ch)
    return "".join(out)


def text_to_tags(punctuated: str, punct: PunctConfig = DEFAULT_PUNCT) -> LabeledSequence:
    """Convert normalized punctuated text into a tagged character stream.

    A complete sentence of length L >= 2 becomes B O^(L-2) E; a single
    character sentence becomes E. Text after the last stop is left as an open
    sentence, B O^(L-1), since its end was never observed.
    """
    chars = []
    tags = []

    def flush(sentence: list, complete: bool):
        if not sentence:
            return
        chars.extend(sentence)
        n = len(sentence)
        if complete:
            tags.append("E" if n == 1 else "B" + "O" * (n - 2) + "E")
        else:
            tags.append("B" + "O" * (n - 1))

    current: list = []
    for ch in punctuated:
        if ch in punct.stops:
            flush(current, complete=True)
            current = []
        else:
            current.append(ch)
    flush(current, complete=False)
    return LabeledSequence("".join(chars), "".join(tags))


def tags_to_text(seq: LabeledSequence, separator: str = "/") -> str:
    """Reinsert boundaries: a separator goes after every E except a final one."""
    out = []
    last = len(seq) - 1
    for i, (ch, tag) in enumerate(zip(seq.chars, seq.tags)):
        out.append(ch)
        if tag == "E" and i != last:
            out.append(separator)
    return "".join(out)


def clean_unsure(text: str, max_run: int = 5, punct: PunctConfig = DEFAULT_PUNCT) -> str:
    """Drop whole sentences containing more than max_run consecutive '□'.

    Sentences keep their trailing stop; a deleted sentence takes its stop with
    it. Idempotent by construction.
    """
    run_re = re.compile(re.escape(UNSURE_CHAR) + "{" + str(max_run + 1) + ",}")
    out = []
    current = []
    for ch in text:
        current.append(ch)
        if ch in punct.stops:
            segment = "".join(current)
            if not run_re.search(segment):
                out.append(segment)
            current = []
    tail = "".join(current)
    if tail and not run_re.search(tail):
        out.append(tail)
    return "".join(out)


# ---------------------------------------------------------------------------
# decoding, one unit at a time

@functools.cache
def table_pairs(table) -> dict:
    """The table's (codepoint, id) pairs as a dict, the mapping its sha256 covers."""
    return dict(zip(table.entries.tolist(), table.ids[table.entries].tolist()))


def oracle_emissions(model, chars: str) -> np.ndarray:
    """(1, n, 3) float32 emissions of one unit at B = 1: ids looked up
    character by character in dicts, the full-scale BiLSTM step, then the emission."""
    w = model.weights
    X = w["emb.char_vectors"][[model.vocab.char_to_index.get(c, Vocab.UNK) for c in chars]]
    if model.use_radicals:
        rads = [table_pairs(model.radtable).get(ord(c), 0) for c in chars]
        X = np.hstack([X, w["emb.radical_vectors"][rads]])
    H2, _ = full_scale_bilstm_forward_batch(w, X[None].astype(np.float32))
    return H2 @ w["emit.W"].astype(np.float32) + w["emit.b"].astype(np.float32)


def oracle_units(chars: str) -> list:
    """segment's units: UNIT_SIZE characters each, the last one shorter."""
    return [chars[start:start + UNIT_SIZE] for start in range(0, len(chars), UNIT_SIZE)]


def oracle_decode(model, chars: str) -> str:
    """One unit's tags, by stepwise_viterbi over its oracle_emissions."""
    tags = stepwise_viterbi(oracle_emissions(model, chars), model.weights["crf.trans"])[0]
    return "".join("BEO"[t] for t in tags)


def oracle_segment(model, raw: str, separator: str = "/") -> str:
    """segment: the text normalized and stripped of stops, each unit decoded
    alone, the tags rejoined over the whole stream."""
    chars = "".join(c for c in normalize_text(raw) if c not in DEFAULT_PUNCT.stops)
    tags = "".join(oracle_decode(model, unit) for unit in oracle_units(chars))
    return tags_to_text(LabeledSequence(chars, tags), separator)


def oracle_counts(model, units) -> tuple:
    """evaluate's (tp, fp, fn), from sets of the 1-based positions after each E."""
    tp = fp = fn = 0
    for unit in units:
        gold = {i + 1 for i, t in enumerate(unit.seq.tags) if t == "E"}
        pred = {i + 1 for i, t in enumerate(oracle_decode(model, unit.seq.chars)) if t == "E"}
        tp, fp, fn = tp + len(gold & pred), fp + len(pred - gold), fn + len(gold - pred)
    return tp, fp, fn


def max_marginals(P, A) -> np.ndarray:
    """(n, 3) best score of a path through each (position, tag) of one row of
    emissions P (n, 3), by a max-plus forward and backward loop."""
    P = P.astype(np.float64)
    T = A[:N_TAGS, :N_TAGS]
    fwd, bwd = np.empty_like(P), np.empty_like(P)
    fwd[0], bwd[-1] = A[START, :N_TAGS] + P[0], A[:N_TAGS, STOP]
    for t in range(1, len(P)):
        fwd[t] = (fwd[t - 1][:, None] + T).max(axis=0) + P[t]
    for t in range(len(P) - 2, -1, -1):
        bwd[t] = (T + P[t + 1] + bwd[t + 1]).max(axis=1)
    return fwd + bwd
