"""End-to-end command tests through click's test runner."""

import re
import shutil
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner

from judou.cli import main
from judou.corpus import build_vocab, read_units
from judou.embedding import EmbeddingConfig, load_embeddings, save_embeddings
from judou.segmenter import Hyperparams, load_model, save_model
from judou.corpus import write_units

from conftest import unit_of
from test_segmenter import PERIOD3, ALL_O

SENTENCES = ["天地玄黃宇宙洪荒", "日月盈昃辰宿列張", "寒來暑往秋收冬藏", "閏餘成歲律呂調陽"]


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def docs_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("docs")
    block = "。".join(SENTENCES) + "。"
    (d / "doc.txt").write_text(block * 25, encoding="utf-8")  # 800 tagged chars
    return d


@pytest.fixture(scope="module")
def data_dir(runner, docs_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    r = runner.invoke(main, ["prepare", "--input", str(docs_dir), "--out", str(out)])
    assert r.exit_code == 0, r.stdout + r.stderr
    return out


@pytest.fixture(scope="module")
def emb_path(runner, data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("emb") / "emb.bin"
    r = runner.invoke(main, ["pretrain", "--data", str(data_dir), "--dim-char", "6",
                             "--dim-radical", "4", "--epochs", "3", "--out", str(out)])
    assert r.exit_code == 0, r.stdout + r.stderr
    return out


@pytest.fixture(scope="module")
def model_path(runner, data_dir, emb_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.bin"
    r = runner.invoke(main, [
        "train", "--data", str(data_dir), "--embeddings", str(emb_path),
        "--hidden", "6", "--batch", "4", "--epochs", "15",
        "--learning-rate", "0.1", "--dropout", "0.0", "--eval-on-train",
        "--out", str(out)])
    assert r.exit_code == 0, r.stdout + r.stderr
    return out


# ---------------------------------------------------------------------------
# defaults

def test_train_defaults_match_reference_settings():
    defaults = {o.name: o.default for o in main.commands["train"].params}
    assert defaults["hidden"] == 100
    assert defaults["batch"] == 50
    assert defaults["epochs"] == 30
    assert defaults["learning_rate"] == 0.01
    assert defaults["clip_norm"] == 5.0
    assert defaults["dropout"] == 0.5


def test_pretrain_and_prepare_defaults():
    pre = {o.name: o.default for o in main.commands["pretrain"].params}
    assert pre["dim_char"] == 70 and pre["dim_radical"] == 30
    assert pre["window"] == 2 and pre["epochs"] == 5
    prep = {o.name: o.default for o in main.commands["prepare"].params}
    assert prep["unit_size"] == 100 and prep["max_unsure_run"] == 5


def test_pretrain_and_train_defaults_are_the_config_defaults():
    # an option whose config has a field of its name reads its default from there
    checked = 0
    for command, config, renamed in [("pretrain", EmbeddingConfig(),
                                      {"dim_char": "d_char", "dim_radical": "d_radical"}),
                                     ("train", Hyperparams(), {})]:
        names = {f.name for f in fields(config)}
        for param in main.commands[command].params:
            name = renamed.get(param.name, param.name)
            if name in names:
                assert param.default == getattr(config, name), (command, param.name)
                checked += 1
    assert checked == 12


def test_prepare_help_says_segment_decodes_fixed_units(runner):
    r = runner.invoke(main, ["prepare", "--help"])
    assert "segment always decodes 100-character units" in " ".join(r.stdout.split())


# ---------------------------------------------------------------------------
# prepare

def test_prepare_outputs(runner, data_dir):
    units = read_units(data_dir / "train.tsv")
    assert len(units) == 4
    assert len(read_units(data_dir / "valid.tsv")) == 2
    assert len(read_units(data_dir / "test.tsv")) == 2
    assert all(len(u.seq) == 100 for u in units)
    assert sorted(p.name for p in data_dir.iterdir()) == [
        "manifest.tsv", "test.tsv", "train.tsv", "valid.tsv"]
    manifest = (data_dir / "manifest.tsv").read_text(encoding="utf-8")
    assert manifest == "train\ttrain.tsv\nvalid\tvalid.tsv\ntest\ttest.tsv\nseed\t0\n"


def test_prepare_prints_split_counts(runner, docs_dir, tmp_path):
    r = runner.invoke(main, ["prepare", "--input", str(docs_dir), "--out", str(tmp_path / "d")])
    assert r.exit_code == 0
    assert r.stdout == "train\t4\nvalid\t2\ntest\t2\n"


def test_prepare_is_deterministic(runner, docs_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = runner.invoke(main, ["prepare", "--input", str(docs_dir), "--out", str(out)])
        assert r.exit_code == 0
        outs.append(out)
    for fname in ("train.tsv", "valid.tsv", "test.tsv", "manifest.tsv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_prepare_rejects_tiny_unit_size(runner, docs_dir, tmp_path):
    r = runner.invoke(main, ["prepare", "--input", str(docs_dir),
                             "--unit-size", "1", "--out", str(tmp_path / "d")])
    assert r.exit_code == 2


def test_prepare_empty_corpus_exits_3(runner, tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "junk.txt").write_text("only ascii, no han at all\n", encoding="utf-8")
    r = runner.invoke(main, ["prepare", "--input", str(docs), "--out", str(tmp_path / "d")])
    assert r.exit_code == 3
    assert "empty" in r.stderr


def test_prepare_missing_input_dir(runner, tmp_path):
    r = runner.invoke(main, ["prepare", "--input", str(tmp_path / "nope"),
                             "--out", str(tmp_path / "d")])
    assert r.exit_code == 2


@pytest.mark.parametrize("command", ["prepare", "pretrain", "train"])
def test_a_negative_seed_is_a_usage_error(runner, command, docs_dir, data_dir, emb_path, tmp_path):
    args = {"prepare": ["--input", str(docs_dir)],
            "pretrain": ["--data", str(data_dir)],
            "train": ["--data", str(data_dir), "--embeddings", str(emb_path)]}[command]
    out = tmp_path / "out"
    r = runner.invoke(main, [command, *args, "--seed", "-1", "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert "--seed" in r.stderr and "Traceback" not in r.output
    assert not out.exists()


# ---------------------------------------------------------------------------
# pretrain

def test_pretrain_reports_decreasing_loss(runner, data_dir, tmp_path):
    out = tmp_path / "emb.bin"
    r = runner.invoke(main, ["pretrain", "--data", str(data_dir), "--dim-char", "5",
                             "--dim-radical", "3", "--epochs", "3", "--out", str(out)])
    assert r.exit_code == 0
    losses = [float(line.split()[-1]) for line in r.stdout.strip().splitlines()]
    assert len(losses) == 3
    assert losses[-1] < losses[0]
    emb = load_embeddings(out)
    assert emb.d_char == 5 and emb.d_radical == 3
    assert emb.vocab == build_vocab(read_units(data_dir / "train.tsv"))


def test_pretrain_rejects_zero_radical_dim(runner, data_dir, tmp_path):
    r = runner.invoke(main, ["pretrain", "--data", str(data_dir),
                             "--dim-radical", "0", "--out", str(tmp_path / "e")])
    assert r.exit_code == 2


def test_pretrain_missing_data_dir(runner, tmp_path):
    r = runner.invoke(main, ["pretrain", "--data", str(tmp_path / "nope"),
                             "--out", str(tmp_path / "e")])
    assert r.exit_code == 2


def test_pretrain_stops_at_a_non_finite_loss(runner, data_dir, tmp_path):
    out = tmp_path / "emb.bin"
    r = runner.invoke(main, ["pretrain", "--data", str(data_dir), "--dim-char", "6",
                             "--dim-radical", "4", "--epochs", "2", "--learning-rate", "50",
                             "--out", str(out)])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: CBOW loss is") and r.stderr.count("\n") == 1
    assert "at epoch 1, unit 0, position" in r.stderr
    assert not out.exists()


def test_pretrain_rejects_a_nan_learning_rate_before_the_first_epoch(runner, data_dir, tmp_path):
    out = tmp_path / "emb.bin"
    r = runner.invoke(main, ["pretrain", "--data", str(data_dir), "--learning-rate", "nan",
                             "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr.startswith("error: bad optimization settings") and "try" not in r.stderr
    assert not out.exists()


def data_copy(data_dir, tmp_path):
    out = tmp_path / "data"
    shutil.copytree(data_dir, out)
    return out


# ---------------------------------------------------------------------------
# train

def test_train_rejects_an_empty_unit(runner, data_dir, emb_path, tmp_path):
    data = data_copy(data_dir, tmp_path)
    n_lines = len((data / "train.tsv").read_text(encoding="utf-8").splitlines())
    with open(data / "train.tsv", "a", encoding="utf-8") as f:
        f.write("\t\n")
    r = runner.invoke(main, ["train", "--data", str(data), "--embeddings", str(emb_path),
                             "--hidden", "3", "--epochs", "1",
                             "--out", str(tmp_path / "m.bin")])
    assert r.exit_code == 2, r.output
    assert f"train.tsv:{n_lines + 1}: malformed unit line" in r.stderr

def test_train_writes_model_and_log(runner, model_path):
    log = model_path.with_name(model_path.name + ".log").read_text(encoding="utf-8")
    lines = log.strip().splitlines()
    assert len(lines) == 15
    assert lines[0].startswith("epoch 1 loss=")
    assert "P=" in lines[0] and "R=" in lines[0] and "F1=" in lines[0]
    model = load_model(model_path)
    assert model.use_radicals is True


def test_train_log_reports_the_clip_rate(model_path):
    log = model_path.with_name(model_path.name + ".log").read_text(encoding="utf-8")
    for line in log.splitlines():
        assert re.fullmatch(r"epoch \d+ loss=\S+ P=\S+ R=\S+ F1=\S+ clip=[01]\.\d\d", line), line


def test_train_converges_on_train_split(runner, model_path, data_dir):
    # the corpus is strictly periodic, so the train split is learnable
    r = runner.invoke(main, ["eval", "--model", str(model_path),
                             "--data", str(data_dir / "train.tsv")])
    assert r.exit_code == 0
    assert r.stdout == "P=1.0000 R=1.0000 F1=1.0000\n"


def test_train_zero_epochs_still_writes_checkpoint(runner, data_dir, emb_path, tmp_path):
    out = tmp_path / "untrained.bin"
    r = runner.invoke(main, ["train", "--data", str(data_dir), "--embeddings", str(emb_path),
                             "--hidden", "3", "--epochs", "0",
                             "--out", str(out)])
    assert r.exit_code == 0
    assert r.stdout == ""
    assert load_model(out).vocab.size > 2


def test_train_missing_embeddings(runner, data_dir, tmp_path):
    r = runner.invoke(main, ["train", "--data", str(data_dir),
                             "--embeddings", str(tmp_path / "nope.bin"),
                             "--out", str(tmp_path / "m")])
    assert r.exit_code == 2
    assert "cannot read embeddings" in r.stderr


def test_train_rejects_an_embedding_file_with_window_zero(runner, data_dir, emb_path, tmp_path):
    emb = load_embeddings(emb_path)
    emb.config.window = 0
    bad = tmp_path / "emb.bin"
    save_embeddings(emb, bad)
    r = runner.invoke(main, ["train", "--data", str(data_dir), "--embeddings", str(bad),
                             "--out", str(tmp_path / "m")])
    assert r.exit_code == 2
    assert "bad embedding file" in r.stderr


def test_train_reports_non_finite_embeddings_as_an_error(runner, data_dir, emb_path, tmp_path):
    emb = load_embeddings(emb_path)
    emb.char_vectors = np.full_like(emb.char_vectors, np.nan)
    bad, out = tmp_path / "emb.bin", tmp_path / "m.bin"
    save_embeddings(emb, bad)
    r = runner.invoke(main, ["train", "--data", str(data_dir), "--embeddings", str(bad),
                             "--hidden", "3", "--epochs", "1",
                             "--out", str(out)])
    assert r.exit_code == 2
    assert r.stderr == "error: non-finite gradient in parameter 'emb.char_vectors'\n"
    assert not out.exists()


@pytest.mark.parametrize("option, message", [
    ("--dropout", "dropout must be in"),
    ("--learning-rate", "bad optimization settings"),
    ("--clip-norm", "bad optimization settings"),
])
def test_train_rejects_a_nan_setting_before_the_first_epoch(runner, data_dir, emb_path, tmp_path,
                                                            option, message):
    out = tmp_path / "m.bin"
    r = runner.invoke(main, ["train", "--data", str(data_dir), "--embeddings", str(emb_path),
                             "--hidden", "3", "--epochs", "1",
                             option, "nan", "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr.startswith(f"error: {message}") and r.stderr.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# eval (rigged checkpoints give exact scores)

def rigged_checkpoint(make_model, force_transitions, arcs, path):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    force_transitions(model, arcs)
    save_model(model, path)
    return model


def test_eval_perfect_line(runner, make_model, force_transitions, tmp_path):
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, PERIOD3, ckpt)
    data = tmp_path / "gold.tsv"
    write_units([unit_of("天地人山水火", "BOEBOE")], data)
    r = runner.invoke(main, ["eval", "--model", str(ckpt), "--data", str(data)])
    assert r.exit_code == 0
    assert r.stdout == "P=1.0000 R=1.0000 F1=1.0000\n"


def test_eval_half_line(runner, make_model, force_transitions, tmp_path):
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, PERIOD3, ckpt)
    data = tmp_path / "gold.tsv"
    write_units([unit_of("天地人山水火", "BOEEBO")], data)
    r = runner.invoke(main, ["eval", "--model", str(ckpt), "--data", str(data)])
    assert r.exit_code == 0
    assert r.stdout == "P=0.5000 R=0.5000 F1=0.5000\n"


def test_eval_rejects_an_empty_unit(runner, make_model, force_transitions, tmp_path):
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, PERIOD3, ckpt)
    data = tmp_path / "gold.tsv"
    data.write_text("天地人山水火\tBOEBOE\n\t\n", encoding="utf-8")
    r = runner.invoke(main, ["eval", "--model", str(ckpt), "--data", str(data)])
    assert r.exit_code == 2, r.output
    assert r.stderr == f"error: {data}:2: malformed unit line\n"


def test_eval_on_an_empty_split_exits_3(runner, make_model, force_transitions, tmp_path):
    # an empty split used to print P=0.0000 R=0.0000 F1=0.0000 and exit 0
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, PERIOD3, ckpt)
    data = tmp_path / "gold.tsv"
    write_units([], data)
    r = runner.invoke(main, ["eval", "--model", str(ckpt), "--data", str(data)])
    assert r.exit_code == 3, r.output
    assert r.stdout == ""
    assert r.stderr == f"error: {data} holds no units\n"


def test_eval_missing_model(runner, tmp_path):
    data = tmp_path / "gold.tsv"
    write_units([unit_of("天地", "BE")], data)
    r = runner.invoke(main, ["eval", "--model", str(tmp_path / "nope.bin"),
                             "--data", str(data)])
    assert r.exit_code == 2
    assert "cannot read model" in r.stderr


def test_eval_missing_data(runner, make_model, force_transitions, tmp_path):
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, PERIOD3, ckpt)
    r = runner.invoke(main, ["eval", "--model", str(ckpt),
                             "--data", str(tmp_path / "nope.tsv")])
    assert r.exit_code == 2


def test_segment_rejects_a_checkpoint_with_invalid_utf8(runner, make_model, force_transitions,
                                                       tmp_path):
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, ALL_O, ckpt)
    ckpt.write_bytes(ckpt.read_bytes().replace(b"<UNK>", b"\xffUNK>", 1))
    r = runner.invoke(main, ["segment", "--model", str(ckpt)], input="天地")
    assert r.exit_code == 2
    assert "bad checkpoint" in r.stderr


@pytest.mark.parametrize("command", ["eval", "segment"])
def test_a_checkpoint_with_214_radical_rows_is_a_bad_checkpoint(runner, make_model, command,
                                                                tmp_path):
    ckpt = tmp_path / "m.bin"
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    model.weights["emb.radical_vectors"] = model.weights["emb.radical_vectors"][:214]
    save_model(model, ckpt)
    data = tmp_path / "gold.tsv"
    write_units([unit_of("天地", "BE")], data)
    args = ["--data", str(data)] if command == "eval" else []
    r = runner.invoke(main, [command, "--model", str(ckpt)] + args, input="天地")
    assert r.exit_code == 2
    assert "bad checkpoint" in r.stderr


# ---------------------------------------------------------------------------
# segment

def test_segment_from_stdin(runner, make_model, force_transitions, tmp_path):
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, PERIOD3, ckpt)
    r = runner.invoke(main, ["segment", "--model", str(ckpt)], input="天地人山水火")
    assert r.exit_code == 0
    assert r.stdout == "天地人/山水火\n"


def test_segment_from_file_with_custom_separator(runner, make_model, force_transitions, tmp_path):
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, PERIOD3, ckpt)
    src = tmp_path / "in.txt"
    src.write_text("天地人,山水火。", encoding="utf-8")
    r = runner.invoke(main, ["segment", "--model", str(ckpt), "--in", str(src),
                             "--sep", "|"])
    assert r.exit_code == 0
    assert r.stdout == "天地人|山水火\n"


def test_segment_empty_stdin(runner, make_model, force_transitions, tmp_path):
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, ALL_O, ckpt)
    r = runner.invoke(main, ["segment", "--model", str(ckpt)], input="")
    assert r.exit_code == 0
    assert r.stdout == ""


def test_segment_rejects_invalid_utf8_stdin(runner, make_model, force_transitions, tmp_path):
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, ALL_O, ckpt)
    r = runner.invoke(main, ["segment", "--model", str(ckpt)], input=b"\xff\xfe\x00")
    assert r.exit_code == 2
    assert "not valid UTF-8" in r.stderr


def test_segment_rejects_invalid_utf8_file(runner, make_model, force_transitions, tmp_path):
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, ALL_O, ckpt)
    src = tmp_path / "in.txt"
    src.write_bytes(b"\xff\xfe")
    r = runner.invoke(main, ["segment", "--model", str(ckpt), "--in", str(src)])
    assert r.exit_code == 2
    assert "not valid UTF-8" in r.stderr


# ---------------------------------------------------------------------------
# radical lookup

def test_radical_lookup(runner):
    r = runner.invoke(main, ["radical", "--char", "雲"])
    assert r.exit_code == 0
    assert r.stdout == "173 ⾬\n"  # KANGXI RADICAL RAIN


def test_radical_lookup_non_han(runner):
    r = runner.invoke(main, ["radical", "--char", "a"])
    assert r.exit_code == 0
    assert r.stdout == "none\n"


def test_radical_rejects_multiple_chars(runner):
    r = runner.invoke(main, ["radical", "--char", "雲雨"])
    assert r.exit_code == 2
    assert "exactly one" in r.stderr
