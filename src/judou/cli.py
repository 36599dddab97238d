"""Command-line pipeline: prepare -> pretrain -> train -> eval / segment.

Exit codes: 0 success, 2 usage, validation, numeric or I/O failure, 3 empty
data. Any ValueError or OSError a command raises exits 2 with one error: line;
the library raises ValueError for bad input, a malformed file and a non-finite
number. Data goes to stdout, diagnostics to stderr. Text I/O is strict UTF-8.
"""

import sys
import time
from pathlib import Path

import click

from . import __version__, binio, corpus
from .corpus import (CorpusSplits, PunctConfig, build_vocab, chunk_units,
                     clean_unsure, normalize_text, read_units, replacing,
                     split_corpus, text_to_tags, write_units)
from .embedding import EmbeddingConfig, load_embeddings, save_embeddings, train_embeddings
from .radicals import default_table, radical_char, radical_of
from .segmenter import (Hyperparams, build_model, evaluate, load_model,
                        save_model, segment, train)

EXIT_USAGE = 2
EXIT_EMPTY = 3
# an output file; pretrain and train create its directory before they start
OUT_FILE = click.Path(dir_okay=False, path_type=Path)


def _fail(message: str, code: int = EXIT_USAGE):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(read, path: Path | None, kind: str = ""):
    """read(path), a file that does not decode being a usage error, and one
    that read finds malformed (a binio.FormatError) a bad kind."""
    try:
        return read(path)
    except UnicodeDecodeError as e:
        _fail(f"{path or 'stdin'} is not valid UTF-8: {e}")
    except binio.FormatError as e:
        _fail(f"bad {kind}: {e}")


def _read_text(path: Path | None) -> str:
    """The text of path, or of stdin when path is None."""
    return _load(lambda p: (p.read_bytes() if p else sys.stdin.buffer.read()).decode(), path)


def _refuse_overwrites(outputs: list, inputs: list) -> None:
    """Exit 2 if an output, an (option, path, what it holds) triple, resolves
    to an input, a (path, what it holds) pair, or to an earlier output."""
    held = {path.resolve(): what for path, what in inputs}
    for option, path, what in outputs:
        if (key := path.resolve()) in held:
            _fail(f"{option} {path} would overwrite the {held[key]}")
        held[key] = what


class _Pipeline(click.Group):
    """The command group: a ValueError or OSError from any command exits 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OSError as e:
            _fail(f"cannot open {e.filename}: {e.strerror}" if e.filename else str(e))
        except ValueError as e:
            _fail(str(e))


@click.group(cls=_Pipeline, context_settings={"show_default": True})
@click.version_option(__version__)
def main():
    """Sentence segmentation for unpunctuated classical Chinese."""


@main.command()
@click.option("--input", "input_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Directory of punctuated UTF-8 source documents.")
@click.option("--stops", default="".join(sorted(corpus.DEFAULT_STOPS)),
              help="Characters treated as sentence stops.")
@click.option("--unit-size", default=corpus.UNIT_SIZE, type=click.IntRange(2),
              help=f"Characters per unit; segment always decodes {corpus.UNIT_SIZE}-character units.")
@click.option("--max-unsure-run", default=5, type=click.IntRange(0),
              help="Drop sentences with more consecutive □ than this.")
@click.option("--seed", default=0, type=click.IntRange(0))
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
def prepare(input_dir, stops, unit_size, max_unsure_run, seed, out_dir):
    """Tag, chunk, and split a corpus; write the three splits and a manifest."""
    punct = PunctConfig(stops=frozenset(stops))
    units = []
    for doc in sorted(p for p in input_dir.iterdir() if p.is_file()):
        text = clean_unsure(normalize_text(_read_text(doc), punct), max_unsure_run, punct)
        units.extend(chunk_units(text_to_tags(text, punct), unit_size))
    if not units:
        _fail("no units produced: corpus is empty after normalization", EXIT_EMPTY)
    splits = split_corpus(units, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = ("train", "valid", "test")
    for name in names:
        write_units(getattr(splits, name), out_dir / f"{name}.tsv")
    with replacing(out_dir / "manifest.tsv", encoding="utf-8", newline="\n") as f:
        f.writelines(f"{name}\t{name}.tsv\n" for name in names)
        f.write(f"seed\t{seed}\n")
    for name in names:
        click.echo(f"{name}\t{len(getattr(splits, name))}")


@main.command()
@click.option("--data", "data_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Directory written by prepare.")
@click.option("--dim-char", default=EmbeddingConfig.d_char, type=click.IntRange(1))
@click.option("--dim-radical", default=EmbeddingConfig.d_radical, type=click.IntRange(1))
@click.option("--window", default=EmbeddingConfig.window, type=click.IntRange(1))
@click.option("--epochs", default=EmbeddingConfig.epochs, type=click.IntRange(1))
@click.option("--learning-rate", default=EmbeddingConfig.learning_rate,
              type=click.FloatRange(0, min_open=True))
@click.option("--seed", default=EmbeddingConfig.seed, type=click.IntRange(0))
@click.option("--out", "out_path", required=True, type=OUT_FILE)
def pretrain(data_dir, dim_char, dim_radical, window, epochs, learning_rate, seed, out_path):
    """Pretrain radical-augmented character embeddings on the training split,
    over the vocabulary of its characters."""
    _refuse_overwrites([("--out", out_path, "--out embedding file")],
                       [(data_dir / "train.tsv", "training split")])
    units = _load(read_units, data_dir / "train.tsv")
    if not units:
        _fail("training split is empty", EXIT_EMPTY)
    cfg = EmbeddingConfig(d_char=dim_char, d_radical=dim_radical, window=window,
                          epochs=epochs, learning_rate=learning_rate, seed=seed)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    positions = sum(len(u.seq) for u in units)
    vocab = build_vocab(units)

    def report(epoch, mean_loss):
        nonlocal start  # the first epoch's time includes drawing the model
        now = time.perf_counter()
        click.echo(f"epoch {epoch + 1} {now - start:.2f}s {positions / (now - start):.0f} "
                   f"positions/s loss {mean_loss:.4f}")
        start = now

    start = time.perf_counter()
    emb = train_embeddings(units, default_table(), cfg, vocab=vocab, progress=report)
    save_embeddings(emb, out_path)


@main.command(name="train")
@click.option("--data", "data_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--embeddings", "emb_path", required=True, type=click.Path(path_type=Path))
@click.option("--hidden", default=Hyperparams.hidden, type=click.IntRange(1))
@click.option("--batch", default=Hyperparams.batch, type=click.IntRange(1))
@click.option("--epochs", default=Hyperparams.epochs, type=click.IntRange(0))
@click.option("--learning-rate", default=Hyperparams.learning_rate, type=click.FloatRange(0))
@click.option("--clip-norm", default=Hyperparams.clip_norm, type=click.FloatRange(0, min_open=True))
@click.option("--dropout", default=Hyperparams.dropout, type=click.FloatRange(0, 1, max_open=True))
@click.option("--seed", default=0, type=click.IntRange(0))
@click.option("--freeze-embeddings", is_flag=True,
              help="Keep the pretrained embeddings fixed during training.")
@click.option("--eval-on-train", is_flag=True,
              help="Log per-epoch metrics on the training split instead of validation.")
@click.option("--out", "out_path", required=True, type=OUT_FILE)
@click.option("--log", "log_path", type=OUT_FILE,
              help="Training log destination [default: OUT.log].")
def train_cmd(data_dir, emb_path, hidden, batch, epochs,
              learning_rate, clip_norm, dropout, seed, freeze_embeddings,
              eval_on_train, out_path, log_path):
    """Train the tagger and write a checkpoint plus a per-epoch log."""
    log_path = log_path or out_path.with_name(out_path.name + ".log")
    valid_path = data_dir / "valid.tsv"
    _refuse_overwrites([("--out", out_path, "--out checkpoint"),
                        ("--log", log_path, "--log file")],
                       [(emb_path, "--embeddings file"),
                        (data_dir / "train.tsv", "training split"),
                        (valid_path, "validation split")])
    model = build_model(_load(load_embeddings, emb_path, "embedding file"), hidden=hidden, seed=seed)
    train_units = _load(read_units, data_dir / "train.tsv")
    if not train_units:
        _fail("training split is empty", EXIT_EMPTY)
    valid_units = _load(read_units, valid_path) if valid_path.exists() else []
    hp = Hyperparams(batch=batch, epochs=epochs, learning_rate=learning_rate,
                     clip_norm=clip_norm, dropout=dropout)
    splits = CorpusSplits(train=train_units,
                          valid=train_units if eval_on_train else valid_units,
                          test=[])
    for path in (out_path, log_path):
        path.parent.mkdir(parents=True, exist_ok=True)
    lines = []

    def report(epoch, record):
        rep = record.val_report
        line = (f"epoch {epoch + 1} loss={record.mean_loss:.4f} "
                f"P={rep.precision:.4f} R={rep.recall:.4f} F1={rep.f1:.4f} "
                f"clip={record.clip_rate:.2f}")
        lines.append(line)
        click.echo(line)

    train(model, splits, hp, seed=seed, freeze_embeddings=freeze_embeddings, progress=report)
    save_model(model, out_path)
    with replacing(log_path, encoding="utf-8") as f:
        f.writelines(line + "\n" for line in lines)


@main.command(name="eval")
@click.option("--model", "model_path", required=True, type=click.Path(path_type=Path))
@click.option("--data", "data_path", required=True, type=click.Path(path_type=Path),
              help="A split file written by prepare (e.g. test.tsv).")
def eval_cmd(model_path, data_path):
    """Boundary precision/recall/F1 of a checkpoint on a gold split."""
    model = _load(load_model, model_path, "checkpoint")
    units = _load(read_units, data_path)
    if not units:
        _fail(f"{data_path} holds no units", EXIT_EMPTY)
    rep = evaluate(model, units)
    click.echo(f"P={rep.precision:.4f} R={rep.recall:.4f} F1={rep.f1:.4f}")


@main.command(name="segment")
@click.option("--model", "model_path", required=True, type=click.Path(path_type=Path))
@click.option("--in", "in_path", type=click.Path(path_type=Path),
              help="Input file [default: stdin].")
@click.option("--sep", default="/", help="Separator inserted at predicted boundaries.")
def segment_cmd(model_path, in_path, sep):
    """Segment raw text; existing punctuation is stripped first."""
    model = _load(load_model, model_path, "checkpoint")
    out = segment(model, _read_text(in_path), separator=sep)
    if out:
        click.echo(out)


@main.command()
@click.option("--char", "ch", required=True, help="A single Han character.")
def radical(ch):
    """Look up the Kangxi radical of one character."""
    if len(ch) != 1:
        _fail(f"--char takes exactly one character, got {len(ch)}")
    rid = radical_of(default_table(), ch)
    click.echo("none" if rid is None else f"{rid} {radical_char(rid)}")


if __name__ == "__main__":
    main()
