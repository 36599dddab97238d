"""End-to-end command tests through click's test runner."""

import errno
import gc
import json
import re
import shutil
import struct
import weakref
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import judou
from judou import cli
from judou.binio import FormatError
from judou.cli import main
from judou.corpus import build_vocab, read_units
from judou.embedding import EmbeddingConfig, load_embeddings, save_embeddings
from judou.segmenter import Hyperparams, load_model, save_model
from judou.corpus import write_units

from conftest import unit_of
from test_segmenter import PERIOD3, ALL_O

SENTENCES = ["天地玄黃宇宙洪荒", "日月盈昃辰宿列張", "寒來暑往秋收冬藏", "閏餘成歲律呂調陽"]


@contextmanager
def section_of(path, name):
    """A writable (rows, cols) view of one section of a saved file, written
    back on exit. The savers refuse a value float32 cannot hold, so a file
    that holds one is a saved file patched in place."""
    blob = bytearray(path.read_bytes())
    at = blob.index(b"\n") + 2  # past the magic, which ends in a newline, and the version
    n, = struct.unpack_from("<I", blob, at)
    offset = at + 4 + n
    for section, rows, cols in json.loads(blob[at + 4:offset])["sections"]:
        if section == name:
            yield np.frombuffer(blob, "<f8", rows * cols, offset).reshape(rows, cols)
            path.write_bytes(blob)
            return
        offset += 8 * rows * cols
    raise KeyError(name)


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


def test_version_runs_without_an_installed_package(runner):
    # the version used to come from the installed distribution's metadata,
    # so a checkout run with PYTHONPATH=src exited 1 with a RuntimeError
    r = runner.invoke(main, ["--version"])
    assert r.exit_code == 0, r.output
    assert r.stdout.endswith(f"version {judou.__version__}\n") and judou.__version__ == "0.1.0"


def test_the_package_version_is_the_one_pyproject_declares():
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text("utf-8")
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M)[1] == judou.__version__


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


def test_prepare_rejects_the_unsure_placeholder_as_a_stop(runner, docs_dir, tmp_path):
    # it used to write units in which a run of □ had become a sentence break
    out = tmp_path / "d"
    r = runner.invoke(main, ["prepare", "--input", str(docs_dir), "--stops", "。□",
                             "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert r.stderr == "error: stop set may not contain Han ideographs or □: ['□']\n"
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["pretrain", "train"])
def test_an_empty_training_split_exits_3(runner, command, data_dir, emb_path, tmp_path):
    data = data_copy(data_dir, tmp_path)
    write_units([], data / "train.tsv")
    args = {"pretrain": [], "train": ["--embeddings", str(emb_path)]}[command]
    out = tmp_path / "out.bin"
    r = runner.invoke(main, [command, "--data", str(data), *args, "--out", str(out)])
    assert r.exit_code == 3, r.output
    assert r.stdout == ""
    assert r.stderr == "error: training split is empty\n"
    assert not out.exists()


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


def test_pretrain_reports_each_epochs_time_and_speed(runner, data_dir, tmp_path):
    r = runner.invoke(main, ["pretrain", "--data", str(data_dir), "--dim-char", "5",
                             "--dim-radical", "3", "--epochs", "2", "--out",
                             str(tmp_path / "emb.bin")])
    assert r.exit_code == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 2
    for epoch, line in enumerate(lines, 1):
        pattern = rf"epoch {epoch} \d+\.\d\ds \d+ positions/s loss \d+\.\d{{4}}"
        assert re.fullmatch(pattern, line), line


def test_pretrain_creates_the_directory_of_its_output(runner, data_dir, tmp_path):
    # a missing directory used to fail with a traceback after pretraining
    out = tmp_path / "new" / "emb.bin"
    r = runner.invoke(main, ["pretrain", "--data", str(data_dir), "--dim-char", "2",
                             "--dim-radical", "2", "--epochs", "1", "--out", str(out)])
    assert r.exit_code == 0, r.output
    assert load_embeddings(out).d_char == 2


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


def test_train_creates_the_directories_of_its_outputs(runner, data_dir, emb_path, tmp_path):
    # a missing directory used to fail with a traceback after training, and
    # one for the log after the checkpoint was written
    out, log = tmp_path / "model" / "m.bin", tmp_path / "logs" / "train.log"
    r = runner.invoke(main, ["train", "--data", str(data_dir), "--embeddings", str(emb_path),
                             "--hidden", "3", "--epochs", "1",
                             "--out", str(out), "--log", str(log)])
    assert r.exit_code == 0, r.output
    assert load_model(out).vocab.size > 2
    assert log.read_text(encoding="utf-8") == r.stdout


@pytest.mark.parametrize("option", ["--out", "--log"])
def test_train_refuses_a_directory_as_an_output_before_training(runner, data_dir, emb_path,
                                                                tmp_path, option):
    # it used to train for the full run, then fail with a traceback
    paths = {"--out": str(tmp_path / "m.bin"), "--log": str(tmp_path / "m.log"),
             option: str(tmp_path)}
    r = runner.invoke(main, ["train", "--data", str(data_dir), "--embeddings", str(emb_path),
                             "--hidden", "3", "--epochs", "1",
                             "--out", paths["--out"], "--log", paths["--log"]])
    assert r.exit_code == 2, r.output
    assert r.stdout == "" and "is a directory" in r.stderr


@pytest.mark.parametrize("out, log", [("same.bin", "same.bin"),
                                      ("sub/../same2.bin", "same2.bin")])
def test_train_refuses_a_log_that_is_the_checkpoint_before_training(
        runner, data_dir, emb_path, tmp_path, monkeypatch, out, log):
    # it used to save the checkpoint, write the log over it and exit 0
    monkeypatch.chdir(tmp_path)
    r = runner.invoke(main, ["train", "--data", str(data_dir), "--embeddings", str(emb_path),
                             "--hidden", "3", "--epochs", "1", "--out", out, "--log", log])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == f"error: --log {log} would overwrite the --out checkpoint\n"
    assert list(tmp_path.iterdir()) == []


def _tree(root):
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("command, option, path, held", [
    ("train", "--out", "emb.bin", "--embeddings file"),
    ("train", "--out", "sub/../emb.bin", "--embeddings file"),
    ("train", "--out", "data/train.tsv", "training split"),
    ("train", "--out", "data/valid.tsv", "validation split"),
    ("train", "--log", "emb.bin", "--embeddings file"),
    ("train", "--log", "data/train.tsv", "training split"),
    ("pretrain", "--out", "data/train.tsv", "training split"),
    ("pretrain", "--out", "data/../data/train.tsv", "training split"),
])
def test_an_output_that_is_an_input_is_refused_before_anything_is_written(
        runner, data_dir, emb_path, tmp_path, monkeypatch, command, option, path, held):
    # train --out emb.bin used to replace the embeddings with a checkpoint,
    # and --log or pretrain --out a split with a log or embeddings
    shutil.copytree(data_dir, tmp_path / "data")
    shutil.copy(emb_path, tmp_path / "emb.bin")
    before = _tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    args = {"train": ["train", "--data", "data", "--embeddings", "emb.bin", "--hidden", "3",
                      "--epochs", "1", "--out", "model.bin"],
            "pretrain": ["pretrain", "--data", "data", "--epochs", "1", "--out", "emb2.bin"]}[command]
    r = runner.invoke(main, [*args, option, path])  # a repeated option takes its last value
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == f"error: {option} {path} would overwrite the {held}\n"
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("freeze", [True, False])
def test_train_freeze_embeddings_keeps_the_embedding_files_vectors(
        runner, data_dir, emb_path, tmp_path, freeze):
    out = tmp_path / "model.bin"
    r = runner.invoke(main, ["train", "--data", str(data_dir), "--embeddings", str(emb_path),
                             "--hidden", "3", "--epochs", "1", "--learning-rate", "0.1",
                             "--out", str(out), *(["--freeze-embeddings"] * freeze)])
    assert r.exit_code == 0, r.output
    weights, emb = load_model(out).weights, load_embeddings(emb_path)
    same_chars = weights["emb.char_vectors"].tobytes() == emb.char_vectors.tobytes()
    assert same_chars == freeze
    if freeze:
        assert weights["emb.radical_vectors"].tobytes() == emb.radical_vectors.tobytes()


def test_train_holds_no_copy_of_the_loaded_embeddings(runner, data_dir, emb_path, tmp_path,
                                                      monkeypatch):
    # the loaded set used to stay alive for the whole run next to the model's own copy
    loaded, alive, real_train = [], [], cli.train

    def spy_load(path):
        emb = load_embeddings(path)
        loaded.append(weakref.ref(emb))
        return emb

    def spy_train(*args, **kwargs):
        gc.collect()
        alive.append(loaded[0]() is not None)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(cli, "load_embeddings", spy_load)
    monkeypatch.setattr(cli, "train", spy_train)
    r = runner.invoke(main, ["train", "--data", str(data_dir), "--embeddings", str(emb_path),
                             "--hidden", "3", "--epochs", "0", "--out", str(tmp_path / "m.bin")])
    assert r.exit_code == 0, r.output
    assert alive == [False]


def test_train_missing_embeddings(runner, data_dir, tmp_path):
    r = runner.invoke(main, ["train", "--data", str(data_dir),
                             "--embeddings", str(tmp_path / "nope.bin"),
                             "--out", str(tmp_path / "m")])
    assert r.exit_code == 2
    assert r.stderr == f"error: cannot open {tmp_path / 'nope.bin'}: No such file or directory\n"


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
    bad, out = tmp_path / "emb.bin", tmp_path / "m.bin"
    shutil.copy(emb_path, bad)
    with section_of(bad, "emb.char_vectors") as char_vectors:
        char_vectors[...] = np.nan
    r = runner.invoke(main, ["train", "--data", str(data_dir), "--embeddings", str(bad),
                             "--hidden", "3", "--epochs", "1",
                             "--out", str(out)])
    assert r.exit_code == 2
    assert r.stderr == ("error: bad embedding file: section 'emb.char_vectors' holds a NaN, "
                        "an infinity or a value beyond float32's range\n")
    assert not out.exists()


def test_train_refuses_embeddings_with_a_nan_in_the_pad_row(runner, data_dir, emb_path, tmp_path):
    # no unit gathers the PAD row, so such a file used to train and exit 0,
    # and eval then refused the checkpoint that carried the NaN over
    bad, out = tmp_path / "emb.bin", tmp_path / "m.bin"
    shutil.copy(emb_path, bad)
    with section_of(bad, "emb.char_vectors") as char_vectors:
        char_vectors[0, 0] = np.nan
    r = runner.invoke(main, ["train", "--data", str(data_dir), "--embeddings", str(bad),
                             "--hidden", "3", "--epochs", "1", "--out", str(out)])
    assert r.exit_code == 2
    assert r.stderr == ("error: bad embedding file: section 'emb.char_vectors' holds a NaN, "
                        "an infinity or a value beyond float32's range\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_train_refuses_to_write_weights_float32_cannot_hold(runner, data_dir, emb_path, tmp_path):
    # lr 1e300 takes the weights beyond float32's range at the first step:
    # without valid.tsv the checkpoint used to be written and exit 0, and eval
    # then refused it; with it, numpy's warnings came before the error line
    for valid in (False, True):
        data = data_copy(data_dir, tmp_path / str(valid))
        if not valid:
            (data / "valid.tsv").unlink()
        out = tmp_path / "m.bin"
        r = runner.invoke(main, ["train", "--data", str(data), "--embeddings", str(emb_path),
                                 "--hidden", "3", "--learning-rate", "1e300", "--epochs", "2",
                                 "--batch", "50", "--out", str(out)])
        assert r.exit_code == 2, r.output
        assert re.fullmatch(r"error: parameter '[\w.]+' left float32's range; "
                            r"try a learning rate below 1e\+300\n", r.stderr), r.stderr
        assert not out.exists() and not out.with_name("m.bin.log").exists()


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
    assert r.stderr == f"error: cannot open {tmp_path / 'nope.bin'}: No such file or directory\n"


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


@pytest.mark.parametrize("command", ["eval", "segment"])
def test_a_checkpoint_with_a_nan_weight_exits_2(runner, make_model, command, tmp_path):
    # it used to load and then decode to non-finite emission scores
    ckpt = tmp_path / "m.bin"
    save_model(make_model([unit_of("天地人山水火", "BOEBOE")]), ckpt)
    with section_of(ckpt, "emit.W") as emit_W:
        emit_W[0, 0] = np.nan
    data = tmp_path / "gold.tsv"
    write_units([unit_of("天地", "BE")], data)
    args = ["--data", str(data)] if command == "eval" else []
    r = runner.invoke(main, [command, "--model", str(ckpt)] + args, input="天地")
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "bad checkpoint: section 'emit.W'" in r.stderr


@pytest.mark.parametrize("section, row, value", [
    ("emb.char_vectors", "人", np.inf),
    ("fwd.W_x", 0, 3.5e38),
    ("emb.radical_vectors", 0, np.nan),
], ids=["inf-in-a-char-row", "beyond-float32-in-W_x", "nan-in-radical-row-0"])
def test_a_value_float32_cannot_hold_makes_a_bad_checkpoint(runner, make_model, table, section,
                                                            row, value, tmp_path):
    # each of these used to load and segment 天地人山水火也 with at most a numpy
    # warning (an invalid value in matmul, an overflow in the float32 cast),
    # or silently, as no character reads radical row 0
    text = "天地人山水火也"
    model = make_model([unit_of(text, "BOEBOOE")], hidden=5)
    ckpt = tmp_path / "m.bin"
    save_model(model, ckpt)
    with section_of(ckpt, section) as m:
        m[model.vocab.char_to_index[row] if isinstance(row, str) else row, 0] = value
    with pytest.raises(FormatError, match=f"section '{section}'"):
        load_model(ckpt, radtable=table)
    data = tmp_path / "gold.tsv"
    write_units([unit_of(text, "BOEBOOE")], data)
    for args in (["eval", "--data", str(data)], ["segment"]):
        r = runner.invoke(main, args + ["--model", str(ckpt)], input=text * 2)
        assert r.exit_code == 2, r.output
        assert r.stdout == ""
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


def test_segment_rejects_an_empty_separator(runner, make_model, force_transitions, tmp_path):
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, PERIOD3, ckpt)
    r = runner.invoke(main, ["segment", "--model", str(ckpt), "--sep", ""], input="天地人山水火")
    assert r.exit_code == 2
    assert "separator must be a non-empty str" in r.stderr


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


# ---------------------------------------------------------------------------
# the error boundary: any ValueError a command raises exits 2 with its message

@pytest.mark.parametrize("command, name", [
    ("prepare", "split_corpus"), ("pretrain", "build_vocab"), ("train", "build_model"),
    ("eval", "evaluate"), ("segment", "segment"), ("radical", "radical_of")])
def test_a_value_error_from_any_command_exits_2_with_its_message(
        runner, make_model, force_transitions, docs_dir, data_dir, emb_path, monkeypatch,
        command, name, tmp_path):
    # only segment turned it into exit 2; the others exited 1 with a traceback
    def probe(*args, **kwargs):
        raise ValueError("probe")

    monkeypatch.setattr(f"judou.cli.{name}", probe)
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, PERIOD3, ckpt)
    out = str(tmp_path / "out")
    args = {"prepare": ["--input", str(docs_dir), "--out", out],
            "pretrain": ["--data", str(data_dir), "--out", out],
            "train": ["--data", str(data_dir), "--embeddings", str(emb_path), "--out", out],
            "eval": ["--model", str(ckpt), "--data", str(data_dir / "test.tsv")],
            "segment": ["--model", str(ckpt)],
            "radical": ["--char", "雲"]}[command]
    r = runner.invoke(main, [command, *args], input="天地人山水火")
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == "error: probe\n"
    assert isinstance(r.exception, SystemExit) and "Traceback" not in r.output


# ---------------------------------------------------------------------------
# the I/O boundary: any OSError a command raises exits 2 with the file it names

@pytest.mark.parametrize("command, name", [
    ("prepare", "split_corpus"), ("pretrain", "build_vocab"), ("train", "build_model"),
    ("eval", "evaluate"), ("segment", "segment"), ("radical", "radical_of")])
def test_an_os_error_from_any_command_exits_2_naming_the_file(
        runner, make_model, force_transitions, docs_dir, data_dir, emb_path, monkeypatch,
        command, name, tmp_path):
    # each exited 1 with a traceback
    def probe(*args, **kwargs):
        raise OSError(errno.EACCES, "Permission denied", "probe")

    monkeypatch.setattr(f"judou.cli.{name}", probe)
    ckpt = tmp_path / "m.bin"
    rigged_checkpoint(make_model, force_transitions, PERIOD3, ckpt)
    out = str(tmp_path / "out")
    args = {"prepare": ["--input", str(docs_dir), "--out", out],
            "pretrain": ["--data", str(data_dir), "--out", out],
            "train": ["--data", str(data_dir), "--embeddings", str(emb_path), "--out", out],
            "eval": ["--model", str(ckpt), "--data", str(data_dir / "test.tsv")],
            "segment": ["--model", str(ckpt)],
            "radical": ["--char", "雲"]}[command]
    r = runner.invoke(main, [command, *args], input="天地人山水火")
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == "error: cannot open probe: Permission denied\n"
    assert isinstance(r.exception, SystemExit) and "Traceback" not in r.output
