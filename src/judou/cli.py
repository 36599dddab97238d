"""Command-line pipeline: prepare -> pretrain -> train -> eval / segment.

Exit codes: 0 success, 2 usage, validation or numeric failure, 3 empty data.
Data goes to stdout, diagnostics to stderr. All text I/O is strict UTF-8.
"""

import sys
from pathlib import Path

import click

from . import binio, corpus
from .corpus import (CorpusSplits, PunctConfig, build_vocab, chunk_units,
                     clean_unsure, normalize_text, read_units, split_corpus,
                     text_to_tags, write_units)
from .embedding import EmbeddingConfig, load_embeddings, save_embeddings, train_embeddings
from .nncore import NumericError
from .radicals import default_table, radical_char, radical_of
from .segmenter import (Hyperparams, build_model, evaluate, load_model,
                        save_model, segment, train)

EXIT_USAGE = 2
EXIT_EMPTY = 3


def _fail(message: str, code: int = EXIT_USAGE):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(read, path: Path):
    """read(path), a file that cannot be read or is malformed being a usage error."""
    try:
        return read(path)
    except OSError as e:
        _fail(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        _fail(f"{path} is not valid UTF-8: {e}")
    except ValueError as e:
        _fail(str(e))


def _read_text(path: Path) -> str:
    return _load(lambda p: p.read_bytes().decode("utf-8"), path)


@click.group()
@click.version_option(package_name="judou")
def main():
    """Sentence segmentation for unpunctuated classical Chinese."""


@main.command()
@click.option("--input", "input_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Directory of punctuated UTF-8 source documents.")
@click.option("--stops", default="".join(sorted(corpus.DEFAULT_STOPS)),
              show_default=True, help="Characters treated as sentence stops.")
@click.option("--unit-size", default=corpus.UNIT_SIZE, show_default=True, type=click.IntRange(2),
              help=f"Characters per unit; segment always decodes {corpus.UNIT_SIZE}-character units.")
@click.option("--max-unsure-run", default=5, show_default=True, type=click.IntRange(0),
              help="Drop sentences with more consecutive □ than this.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(0))
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
def prepare(input_dir, stops, unit_size, max_unsure_run, seed, out_dir):
    """Tag, chunk, and split a corpus; write the three splits and a manifest."""
    try:
        punct = PunctConfig(stops=frozenset(stops))
    except ValueError as e:
        _fail(str(e))
    units = []
    for doc in sorted(p for p in input_dir.iterdir() if p.is_file()):
        text = clean_unsure(normalize_text(_read_text(doc), punct), max_unsure_run, punct)
        units.extend(chunk_units(text_to_tags(text, punct), unit_size, doc_id=doc.name))
    if not units:
        _fail("no units produced: corpus is empty after normalization", EXIT_EMPTY)
    splits = split_corpus(units, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_units(splits.train, out_dir / "train.tsv")
    write_units(splits.valid, out_dir / "valid.tsv")
    write_units(splits.test, out_dir / "test.tsv")
    with open(out_dir / "manifest.tsv", "w", encoding="utf-8", newline="\n") as f:
        f.write("train\ttrain.tsv\n")
        f.write("valid\tvalid.tsv\n")
        f.write("test\ttest.tsv\n")
        f.write(f"seed\t{seed}\n")
    click.echo(f"train\t{len(splits.train)}")
    click.echo(f"valid\t{len(splits.valid)}")
    click.echo(f"test\t{len(splits.test)}")


@main.command()
@click.option("--data", "data_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Directory written by prepare.")
@click.option("--dim-char", default=EmbeddingConfig.d_char, show_default=True,
              type=click.IntRange(1))
@click.option("--dim-radical", default=EmbeddingConfig.d_radical, show_default=True,
              type=click.IntRange(1))
@click.option("--window", default=EmbeddingConfig.window, show_default=True, type=click.IntRange(1))
@click.option("--epochs", default=EmbeddingConfig.epochs, show_default=True, type=click.IntRange(1))
@click.option("--learning-rate", default=EmbeddingConfig.learning_rate, show_default=True,
              type=click.FloatRange(0, min_open=True))
@click.option("--seed", default=EmbeddingConfig.seed, show_default=True, type=click.IntRange(0))
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
def pretrain(data_dir, dim_char, dim_radical, window, epochs, learning_rate, seed, out_path):
    """Pretrain radical-augmented character embeddings on the training split,
    over the vocabulary of its characters."""
    units = _load(read_units, data_dir / "train.tsv")
    if not units:
        _fail("training split is empty", EXIT_EMPTY)
    try:
        cfg = EmbeddingConfig(d_char=dim_char, d_radical=dim_radical, window=window,
                              epochs=epochs, learning_rate=learning_rate, seed=seed)
    except ValueError as e:
        _fail(str(e))

    def report(epoch, mean_loss):
        click.echo(f"epoch {epoch + 1} loss {mean_loss:.4f}")

    try:
        emb = train_embeddings(units, default_table(), cfg, vocab=build_vocab(units),
                               progress=report)
    except NumericError as e:
        _fail(str(e))
    save_embeddings(emb, out_path)


@main.command(name="train")
@click.option("--data", "data_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--embeddings", "emb_path", required=True, type=click.Path(path_type=Path))
@click.option("--hidden", default=Hyperparams.hidden, show_default=True, type=click.IntRange(1))
@click.option("--batch", default=Hyperparams.batch, show_default=True, type=click.IntRange(1))
@click.option("--epochs", default=Hyperparams.epochs, show_default=True, type=click.IntRange(0))
@click.option("--learning-rate", default=Hyperparams.learning_rate, show_default=True,
              type=click.FloatRange(0))
@click.option("--clip-norm", default=Hyperparams.clip_norm, show_default=True,
              type=click.FloatRange(0, min_open=True))
@click.option("--dropout", default=Hyperparams.dropout, show_default=True,
              type=click.FloatRange(0, 1, max_open=True))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(0))
@click.option("--freeze-embeddings", is_flag=True,
              help="Keep the pretrained embeddings fixed during training.")
@click.option("--eval-on-train", is_flag=True,
              help="Log per-epoch metrics on the training split instead of validation.")
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
@click.option("--log", "log_path", type=click.Path(path_type=Path),
              help="Training log destination [default: OUT.log].")
def train_cmd(data_dir, emb_path, hidden, batch, epochs,
              learning_rate, clip_norm, dropout, seed, freeze_embeddings,
              eval_on_train, out_path, log_path):
    """Train the tagger and write a checkpoint plus a per-epoch log."""
    try:
        emb = load_embeddings(emb_path)
    except OSError as e:
        _fail(f"cannot read embeddings: {e.strerror}")
    except binio.FormatError as e:
        _fail(f"bad embedding file: {e}")
    train_units = _load(read_units, data_dir / "train.tsv")
    if not train_units:
        _fail("training split is empty", EXIT_EMPTY)
    valid_path = data_dir / "valid.tsv"
    valid_units = _load(read_units, valid_path) if valid_path.exists() else []
    try:
        hp = Hyperparams(batch=batch, epochs=epochs, learning_rate=learning_rate,
                         clip_norm=clip_norm, dropout=dropout)
    except ValueError as e:
        _fail(str(e))
    model = build_model(emb, hidden=hidden, seed=seed)
    splits = CorpusSplits(train=train_units,
                          valid=train_units if eval_on_train else valid_units,
                          test=[], seed=seed)
    lines = []

    def report(epoch, record):
        rep = record.val_report
        line = (f"epoch {epoch + 1} loss={record.mean_loss:.4f} "
                f"P={rep.precision:.4f} R={rep.recall:.4f} F1={rep.f1:.4f} "
                f"clip={record.clip_rate:.2f}")
        lines.append(line)
        click.echo(line)

    try:
        train(model, splits, hp, seed=seed, freeze_embeddings=freeze_embeddings,
              progress=report)
    except NumericError as e:
        _fail(str(e))
    save_model(model, out_path)
    log_path = log_path or out_path.with_name(out_path.name + ".log")
    log_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@main.command(name="eval")
@click.option("--model", "model_path", required=True, type=click.Path(path_type=Path))
@click.option("--data", "data_path", required=True, type=click.Path(path_type=Path),
              help="A split file written by prepare (e.g. test.tsv).")
def eval_cmd(model_path, data_path):
    """Boundary precision/recall/F1 of a checkpoint on a gold split."""
    model = _load_model(model_path)
    units = _load(read_units, data_path)
    if not units:
        _fail(f"{data_path} holds no units", EXIT_EMPTY)
    rep = evaluate(model, units)
    click.echo(f"P={rep.precision:.4f} R={rep.recall:.4f} F1={rep.f1:.4f}")


def _load_model(path: Path):
    try:
        return load_model(path)
    except OSError as e:
        _fail(f"cannot read model: {e.strerror}")
    except binio.FormatError as e:
        _fail(f"bad checkpoint: {e}")


@main.command(name="segment")
@click.option("--model", "model_path", required=True, type=click.Path(path_type=Path))
@click.option("--in", "in_path", type=click.Path(path_type=Path),
              help="Input file [default: stdin].")
@click.option("--sep", default="/", show_default=True,
              help="Separator inserted at predicted boundaries.")
def segment_cmd(model_path, in_path, sep):
    """Segment raw text; existing punctuation is stripped first."""
    model = _load_model(model_path)
    if in_path is not None:
        text = _read_text(in_path)
    else:
        try:
            text = sys.stdin.buffer.read().decode("utf-8")
        except UnicodeDecodeError as e:
            _fail(f"stdin is not valid UTF-8: {e}")
    out = segment(model, text, separator=sep)
    if out:
        click.echo(out)


@main.command()
@click.option("--char", "ch", required=True, help="A single Han character.")
def radical(ch):
    """Look up the Kangxi radical of one character."""
    if len(ch) != 1:
        _fail(f"--char takes exactly one character, got {len(ch)}")
    rid = radical_of(default_table(), ch)
    if rid is None:
        click.echo("none")
    else:
        click.echo(f"{rid} {radical_char(rid)}")


if __name__ == "__main__":
    main()
