"""Acceptance gate: one test per shipped criterion, each printing PASS/FAIL.

Expected values come from independent oracles (exhaustive enumeration, central
finite differences, hand-computed counts) rather than from the code under test.
"""

import time

import numpy as np
from click.testing import CliRunner

from judou.cli import main as cli_main
from judou.corpus import (
    CorpusSplits,
    DEFAULT_STOPS,
    LabeledSequence,
    Unit,
    boundary_positions,
    build_vocab,
    tags_to_text,
    text_to_tags,
    TAG_TO_ID,
)
from judou.crf import crf_nll, log_partition, viterbi_decode
from judou.embedding import (
    EmbeddingConfig,
    cbow_loss_and_grads,
    encode_chars,
)
from judou.lstm import bilstm_backward_batch, bilstm_forward_batch, new_bilstm_weights
from judou.nncore import make_rng
from judou.radicals import radical_of
from judou.segmenter import (
    _backward_batch,
    _forward_batch,
    build_model,
    evaluate,
)
from judou.synthetic import random_embeddings, run_overfit, run_radical_signal

from conftest import unit_of
from oracles import (cbow_grad_params, cbow_slot_rows, grad_check, new_cbow_model,
                     oracle_log_partition, oracle_viterbi, random_crf)
from test_cli import SENTENCES
from test_segmenter import ALL_O, PERIOD3


def test_01_crf_matches_enumeration(criterion):
    t0 = time.perf_counter()
    rng = make_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        P = rng.normal(size=(n, 3))
        A = random_crf(rng)
        worst = max(worst, abs(log_partition(P[None], A)[0] - oracle_log_partition(P, A)))
        assert list(viterbi_decode(P[None], A)[0]) == list(oracle_viterbi(P, A))
    dt = time.perf_counter() - t0
    criterion("crf oracle equivalence", worst < 1e-8 and dt < 5.0,
              f"100 instances, worst logZ gap {worst:.1e}, {dt:.2f}s")


def test_02_gradient_checks(criterion):
    t0 = time.perf_counter()
    table_units = [unit_of("天地人山水火", "BOEBOE")]
    vocab = build_vocab(table_units)
    from judou.radicals import default_table
    table = default_table()
    seeds = range(20)

    def cbow_err(seed):
        cfg = EmbeddingConfig(d_char=3, d_radical=2, window=1, seed=seed)
        emb, projection = new_cbow_model(vocab, table, cfg)
        enc = encode_chars("天地人山水", vocab, table)
        center = 1 + seed % 3
        chars, rads = cbow_slot_rows(enc, center, cfg.window)
        return grad_check(lambda: cbow_loss_and_grads(emb, projection, chars, rads,
                                                      enc.char_ids[center])[0],
                          *cbow_grad_params(emb, projection, enc, center))

    def bilstm_err(seed, n):
        rng = make_rng(seed)
        p = new_bilstm_weights(3, 3, rng)
        grads = {name: np.zeros_like(a) for name, a in p.items()}
        xs = rng.normal(size=(1, n, 3))
        w = rng.normal(size=(1, n, 6))
        out, cache = bilstm_forward_batch(p, xs)
        bilstm_backward_batch(p, grads, cache, w.copy())

        def f():
            o, _ = bilstm_forward_batch(p, xs)
            return float((o * w).sum())

        return grad_check(f, p, grads)

    def crf_err(seed):
        rng = make_rng(seed)
        n = 2 + seed % 4
        P = rng.normal(size=(n, 3))
        A = random_crf(rng)
        gold = np.array([rng.integers(3) for _ in range(n)], dtype=np.intp)
        _, dP, dA = crf_nll(P[None], A, gold[None])
        return grad_check(lambda: crf_nll(P[None], A, gold[None])[0][0],
                          {"P": P, "crf.trans": A}, {"P": dP[0], "crf.trans": dA})

    def end_to_end_err(seed):
        rng = make_rng(seed + 1000)
        emb = random_embeddings(vocab, table, d_char=3, d_radical=2, seed=seed)
        model = build_model(emb, hidden=3, seed=seed)
        # generic parameter scale: the CBOW-style +-0.5/dim init leaves some
        # gradients below what central differences at eps=1e-5 can resolve
        w = model.weights
        w["emb.char_vectors"][:] = rng.normal(scale=0.5, size=w["emb.char_vectors"].shape)
        w["emb.radical_vectors"][:] = rng.normal(scale=0.5, size=w["emb.radical_vectors"].shape)
        text = "天地人山水"
        gold = np.array([TAG_TO_ID[t] for t in "BOEBO"], dtype=np.intp)
        enc = encode_chars(text, vocab, table)
        P, cache = _forward_batch(model, enc.char_ids[None], enc.rad_ids[None])
        grads = {name: np.zeros_like(a) for name, a in w.items()}
        _, dP, dA = crf_nll(P, w["crf.trans"], gold[None])
        grads["crf.trans"] += dA
        _backward_batch(model, grads, cache, dP)

        def f():
            P, _ = _forward_batch(model, enc.char_ids[None], enc.rad_ids[None])
            return crf_nll(P, w["crf.trans"], gold[None])[0][0]

        return grad_check(f, w, grads)

    errs = {
        "cbow": max(cbow_err(s) for s in seeds),
        "lstm-step": max(bilstm_err(s, 1) for s in seeds),
        "bilstm": max(bilstm_err(s, 5) for s in seeds),
        "crf-nll": max(crf_err(s) for s in seeds),
        "end-to-end": max(end_to_end_err(s) for s in seeds),
    }
    dt = time.perf_counter() - t0
    ok = all(e < 1e-4 for e in errs.values()) and dt < 60.0
    detail = " ".join(f"{k} {v:.1e}" for k, v in errs.items())
    criterion("gradient checks (20 seeds each)", ok, f"{detail}, {dt:.1f}s")


def test_03_overfit_fixture(criterion):
    t0 = time.perf_counter()
    model, report, log = run_overfit(seed=0)
    dt = time.perf_counter() - t0
    ok = report.f1 >= 0.99 and len(log.epochs) <= 30 and dt < 300.0
    criterion("overfit fixture at default settings", ok,
              f"train F1 {report.f1:.4f} in {len(log.epochs)} epochs, {dt:.1f}s")


def test_04_radical_signal(criterion):
    t0 = time.perf_counter()
    result = run_radical_signal()
    dt = time.perf_counter() - t0
    ok = result.mean_gap >= 0.02 and dt < 900.0
    criterion("radical signal beats char-only ablation", ok,
              f"mean F1 {result.mean_f1_radical:.4f} vs {result.mean_f1_char_only:.4f}, "
              f"gap {result.mean_gap:+.4f} over {len(result.runs)} seeds, {dt:.1f}s")


def test_05_tagging_round_trip(criterion):
    rng = make_rng(505)
    pool = "天地人山水火日月金木"
    stops = sorted(DEFAULT_STOPS)
    n_ok = 0
    for _ in range(1000):
        length = int(rng.integers(0, 31))
        s = "".join(
            stops[rng.integers(len(stops))] if rng.random() < 0.25
            else pool[rng.integers(len(pool))]
            for _ in range(length))

        # independent reconstruction straight from the punctuated string
        parts, cur = [], []
        for ch in s:
            if ch in DEFAULT_STOPS:
                if cur:
                    parts.append("".join(cur))
                    cur = []
            else:
                cur.append(ch)
        tail = "".join(cur)
        expected_text = "/".join(parts + ([tail] if tail else []))
        ends, total = set(), 0
        for p in parts:
            total += len(p)
            ends.add(total)

        seq = text_to_tags(s)
        if (tags_to_text(seq, "/") == expected_text
                and boundary_positions(seq.tags) == ends
                and seq.chars == "".join(parts) + tail):
            n_ok += 1
    criterion("tagging round trip", n_ok == 1000, f"{n_ok}/1000 random strings")


def test_06_metrics_fixtures(criterion, make_model, force_transitions):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    checks = []

    force_transitions(model, PERIOD3)
    r = evaluate(model, [unit_of("天地人山水火", "BOEBOE")])
    checks.append((r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0))

    r = evaluate(model, [unit_of("天地人山水火", "BOEEBO")])
    checks.append((r.precision, r.recall, r.f1) == (0.5, 0.5, 0.5))

    r = evaluate(model, [unit_of("天地人山水火", "BOOOOO")])  # empty gold
    checks.append((r.tp, r.fp, r.fn) == (0, 2, 0)
                  and (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0))

    r = evaluate(model, [
        unit_of("天地人山水火", "BOEBOE"),
        unit_of("天地人山水", "BOEEE"),
        unit_of("天地人山水", "BOOOO"),
    ])
    checks.append((r.tp, r.fp, r.fn) == (3, 1, 2)
                  and round(r.precision, 10) == 0.75
                  and round(r.recall, 10) == 0.6
                  and abs(r.f1 - 2 / 3) < 1e-12)

    force_transitions(model, ALL_O)
    r = evaluate(model, [unit_of("天地人山水火", "BOEBOE")])  # empty prediction
    checks.append((r.tp, r.fp, r.fn) == (0, 0, 2)
                  and (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0))

    criterion("metrics fixtures with degenerate denominators", all(checks),
              f"{sum(checks)}/5 fixtures")


def test_07_pipeline_determinism(criterion, tmp_path):
    runner = CliRunner()
    docs = tmp_path / "docs"
    docs.mkdir()
    block = "。".join(SENTENCES) + "。"
    (docs / "doc.txt").write_text(block * 25, encoding="utf-8")

    outputs = []
    for name in ("a", "b"):
        root = tmp_path / name
        data, emb, model = root / "data", root / "emb.bin", root / "model.bin"
        r = runner.invoke(cli_main, ["prepare", "--input", str(docs), "--out", str(data)])
        assert r.exit_code == 0, r.stderr
        r = runner.invoke(cli_main, ["pretrain", "--data", str(data), "--dim-char", "6",
                                     "--dim-radical", "4", "--epochs", "2",
                                     "--out", str(emb)])
        assert r.exit_code == 0, r.stderr
        r = runner.invoke(cli_main, ["train", "--data", str(data), "--embeddings", str(emb),
                                     "--hidden", "4", "--batch", "4", "--epochs", "2",
                                     "--out", str(model)])
        assert r.exit_code == 0, r.stderr
        r = runner.invoke(cli_main, ["eval", "--model", str(model),
                                     "--data", str(data / "test.tsv")])
        assert r.exit_code == 0, r.stderr
        outputs.append({
            "train.tsv": (data / "train.tsv").read_bytes(),
            "valid.tsv": (data / "valid.tsv").read_bytes(),
            "test.tsv": (data / "test.tsv").read_bytes(),
            "emb.bin": emb.read_bytes(),
            "model.bin": model.read_bytes(),
            "eval": r.stdout,
        })
    same = [k for k in outputs[0] if outputs[0][k] == outputs[1][k]]
    ok = len(same) == len(outputs[0])
    criterion("pipeline determinism (byte-identical reruns)", ok,
              f"{len(same)}/{len(outputs[0])} artifacts identical, "
              f"model {len(outputs[0]['model.bin'])} bytes")


def test_08_radical_table_reference_characters(criterion, table):
    expected = [
        ("腿", 130), ("膊", 130), ("肉", 130), ("肝", 130), ("肺", 130),
        ("脚", 130), ("雲", 173), ("雨", 173), ("云", 7), ("月", 74),
    ]
    results = [(ch, radical_of(table, ch)) for ch, _ in expected]
    ok = all(got == want for (_, got), (_, want) in zip(results, expected))
    detail = " ".join(f"{ch}→{got}" for ch, got in results)
    criterion("radical table resolves reference characters", ok, detail)
