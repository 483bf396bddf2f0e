"""Command-line front end.

Commands mirror the full pipeline: corpus selection (lm-train, lm-rank,
lexicon-match), treebank checking (validate), base model training
(train-tagger, train-parser, jackknife), stacked training
(train-stacked-tagger, train-stacked-parser), inference (tag, parse),
and measurement (eval, iaa, crossfold).  Every command is deterministic
given a seed; training commands write an effective-config snapshot and
the selected best epoch alongside the model.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import glob
import itertools
import math
import os
import sys
import zipfile

import numpy as np

from . import evaluation, langmodel, parser as parsing, stacking, tagger as tagging
from .config import RunConfig, load_config, read_text
from .embeddings import load_embeddings
from .modelio import load_model, save_model, write_text_atomic
from .stacking import StackedTagger
from .treebank import LabelInventory, Sentence, parse_conllu, validate, write_conllu


def _read_treebank(path: str) -> list[Sentence]:
    return parse_conllu(read_text(path))


def _read_sentence_lines(path: str) -> list[list[str]]:
    return [line.split() for line in read_text(path).split("\n") if line.strip()]


def _read_lexicon(path: str) -> list[str]:
    """One term per non-blank line: its lowercased words joined by single
    spaces, so a term never holds a tab.  A comma is refused, since the
    outputs join a sentence's hits with commas."""
    terms = []
    for number, line in enumerate(read_text(path).split("\n"), start=1):
        if "," in line:
            raise ValueError(f"{path}:{number}: a lexicon term cannot hold a comma")
        if words := line.lower().split():
            terms.append(" ".join(words))
    return terms


def _effective_config(args) -> RunConfig:
    config = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides: dict[str, str] = {}
    for field in dataclasses.fields(RunConfig):  # flags whose dest is a config key
        value = getattr(args, field.name, None)
        if value is not None:
            overrides[field.name] = str(value)
    if overrides:
        config = config.updated(overrides)
    return config


def _load_pretrained(args):
    if getattr(args, "embeddings", None):
        return load_embeddings(args.embeddings)
    return None


@functools.cache
def _blas() -> dict[str, object]:
    """Run numpy's bundled OpenBLAS on one thread, whatever
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS say (numcore splits the work
    itself, and the count changes a seed's bits); the library and its
    thread count, for .config snapshots.
    Wheels keep the library in numpy.libs, numpy/.libs or numpy/.dylibs and
    name its functions scipy_openblas_*64_ (numpy >= 2) or openblas_*64_."""
    site = os.path.dirname(np.__path__[0])
    paths = [path for where in ("numpy.libs", "numpy/.libs", "numpy/.dylibs")
             for path in sorted(glob.glob(os.path.join(site, where, "*openblas*")))]
    try:
        lib = ctypes.CDLL(paths[0])
        name = next(f"{prefix}{{}}{suffix}" for prefix in ("scipy_openblas_", "openblas_")
                    for suffix in ("64_", "") if hasattr(lib, f"{prefix}set_num_threads{suffix}"))
    except (IndexError, OSError, StopIteration):
        print("warning: cannot set the BLAS thread count; it keeps its own", file=sys.stderr)
        return {"blas": "unknown", "blas_threads": "unknown"}
    get, pin, about = (getattr(lib, name.format(function))
                       for function in ("get_num_threads", "set_num_threads", "get_config"))
    for function, argtypes, restype in ((get, [], ctypes.c_int), (pin, [ctypes.c_int], None),
                                        (about, [], ctypes.c_char_p)):
        function.argtypes, function.restype = argtypes, restype
    pin(1)
    return {"blas": about().decode(), "blas_threads": get()}


# -- commands -------------------------------------------------------------------


# command: (module with train_<kind>, base archive class or None,
#           dev-score attribute, its printed label, help)
_TRAIN_COMMANDS = {
    "train-tagger": (tagging, None, "dev_accuracy", "dev accuracy",
                     "train a base POS tagger"),
    "train-parser": (parsing, None, "dev_uas", "dev UAS", "train a base parser"),
    "train-stacked-tagger": (stacking, tagging.TaggerModel, "dev_accuracy", "dev accuracy",
                             "train a stacked tagger on a base tagger"),
    "train-stacked-parser": (stacking, parsing.ParserModel, "dev_uas", "dev UAS",
                             "train a stacked parser on a base parser"),
}


def _cmd_train(args) -> int:
    module, base_class, score_attr, score_label, _ = _TRAIN_COMMANDS[args.command]
    kind = args.command.removeprefix("train-")
    config = _effective_config(args)
    bases = []
    if base_class is not None:
        base = load_model(args.base_model)
        if type(base) is not base_class:  # a stacked parser is also a ParserModel
            raise ValueError(f"{args.base_model} is not a base "
                             f"{kind.removeprefix('stacked-')} archive")
        bases.append(base)
    train = _read_treebank(args.train)
    dev = _read_treebank(args.dev) if args.dev else []
    # Looked up on each run, so that a patched module attribute is the one called.
    trainer = getattr(module, "train_" + kind.replace("-", "_"))
    model = trainer(*bases, train, dev, config, pretrained=_load_pretrained(args))
    save_model(args.out, model)
    scored = getattr(model, "target", model)  # a stacked tagger's scores are its target's
    best_epoch, dev_score = scored.best_epoch, getattr(scored, score_attr)
    write_text_atomic(args.out + ".config", config.to_text(
        {"command": args.command, "best_epoch": best_epoch, score_attr: dev_score, **_blas()}))
    print(f"saved {kind.replace('-', ' ')} to {args.out} (best epoch {best_epoch}, "
          f"{score_label} {dev_score})")
    return 0


def _cmd_tag(args) -> int:
    model = load_model(args.model)
    if not isinstance(model, (tagging.TaggerModel, StackedTagger)):
        raise ValueError(f"{args.model} is not a tagger archive")
    tagged = tagging.tag_sentences(model, _read_treebank(args.input))
    write_text_atomic(args.out, write_conllu(tagged))
    print(f"tagged {len(tagged)} sentences -> {args.out}")
    return 0


def _cmd_parse(args) -> int:
    config = _effective_config(args)
    model = load_model(args.model)
    if not isinstance(model, parsing.ParserModel):
        raise ValueError(f"{args.model} is not a parser archive")
    decoder = config.decoder
    parsed, repaired = parsing.parse_sentences(model, _read_treebank(args.input), decoder,
                                               repair=True)
    write_text_atomic(args.out, write_conllu(parsed))
    repairs = "" if decoder == "mst" else f" ({repaired} non-trees repaired by the single-root MST)"
    print(f"parsed {len(parsed)} sentences with {decoder} decoding{repairs} -> {args.out}")
    return 0


def _pct(value: float) -> str:
    """A percentage rounded half-up to two decimals, or "undefined" for a
    score taken over zero tokens."""
    return "undefined" if math.isnan(value) else f"{evaluation.pct2(value):.2f}"


def _report_lines(report) -> list[str]:
    return [
        f"tokens   {report.tokens}",
        f"UAS      {_pct(report.uas)}",
        f"LAS      {_pct(report.las)}",
        f"TagAcc   {_pct(report.tag_accuracy)}",
    ]


def _cmd_eval(args) -> int:
    config = _effective_config(args)
    gold = _read_treebank(args.gold)
    predicted = _read_treebank(args.pred)
    include_punct = config.include_punct
    report = evaluation.attachment_scores(gold, predicted, include_punct)
    for line in _report_lines(report):
        print(line)
    if args.categories:
        table = evaluation.per_category_scores(gold, predicted, include_punct)
        for category in sorted(table):
            r = table[category]
            print(f"{category}\tUAS {_pct(r.uas)}\tLAS {_pct(r.las)}\ttokens {r.tokens}")
    if args.out:
        rows = [("tokens", report.tokens),
                ("uas", _pct(report.uas)),
                ("las", _pct(report.las)),
                ("tag_accuracy", _pct(report.tag_accuracy))]
        write_text_atomic(args.out, "".join(f"{k}\t{v}\n" for k, v in rows))
    return 0


def _cmd_iaa(args) -> int:
    a = _read_treebank(args.a)
    b = _read_treebank(args.b)
    tag_acc, uas, las = evaluation.inter_annotator_agreement(a, b)
    print(f"TagAcc   {_pct(tag_acc)}")
    print(f"UAS      {_pct(uas)}")
    print(f"LAS      {_pct(las)}")
    return 0


def _cmd_jackknife(args) -> int:
    config = _effective_config(args)
    treebank = _read_treebank(args.train)
    pretrained = _load_pretrained(args)
    fold_seeds = itertools.count(config.seed)

    def trainer(train_sents):
        fold_config = config.updated({"seed": str(next(fold_seeds))})
        model = tagging.train_tagger(train_sents, [], fold_config, pretrained=pretrained)
        return lambda sentences: [s.upos for s in tagging.tag_sentences(model, sentences)]

    tagged = evaluation.jackknife_tags(treebank, config.k, trainer, seed=config.seed)
    write_text_atomic(args.out, write_conllu(tagged))
    gold_acc = evaluation.tagging_accuracy(treebank, tagged)
    print(f"jackknifed {len(tagged)} sentences with k={config.k} "
          f"(accuracy vs gold {_pct(gold_acc)}) -> {args.out}")
    return 0


def _cmd_crossfold(args) -> int:
    config = _effective_config(args)
    treebank = _read_treebank(args.treebank)
    pretrained = _load_pretrained(args)
    fold_seeds = itertools.count(config.seed)

    def trainer(train_sents, dev_sents):
        fold_config = config.updated({"seed": str(next(fold_seeds))})
        model = parsing.train_parser(train_sents, dev_sents, fold_config,
                                     pretrained=pretrained)
        return lambda sentences: parsing.parse_sentences(model, sentences, config.decoder)[0]

    report = evaluation.cross_fold_validate(
        treebank, config.folds, trainer, seed=config.seed,
        include_punct=config.include_punct)
    for i, (uas, las) in enumerate(zip(report.fold_uas, report.fold_las), start=1):
        print(f"fold {i}  UAS {_pct(uas)}  LAS {_pct(las)}")
    print(f"mean    UAS {_pct(report.mean_uas)}  LAS {_pct(report.mean_las)}")
    if args.out:
        rows = ["fold\tuas\tlas"]
        rows += [f"{i}\t{u}\t{l}" for i, (u, l) in
                 enumerate(zip(report.fold_uas, report.fold_las), start=1)]
        rows.append(f"mean\t{report.mean_uas}\t{report.mean_las}")
        write_text_atomic(args.out, "\n".join(rows) + "\n")
    return 0


def _cmd_lm_train(args) -> int:
    config = _effective_config(args)
    corpus = _read_sentence_lines(args.corpus)
    model = langmodel.train_ngram_lm(corpus, config.lm_order)
    write_text_atomic(args.out, model.to_json())
    print(f"trained order-{config.lm_order} language model on {len(corpus)} sentences "
          f"-> {args.out}")
    return 0


def _cmd_lm_rank(args) -> int:
    config = _effective_config(args)
    text = read_text(args.lm)  # a decode error names the path, as for every text input
    try:
        model = langmodel.NgramLM.from_json(text)
    except ValueError as exc:
        raise ValueError(f"{args.lm}: not a language model file: {exc}") from None
    del text  # freed before the first score derives the tables
    sentences = _read_sentence_lines(args.input)
    lexicon = _read_lexicon(args.lexicon) if args.lexicon else None
    records = langmodel.rank_by_divergence(model, sentences,
                                           (config.length_min, config.length_max),
                                           config.count_end_token, lexicon)
    lines = []
    for rank, record in enumerate(records, start=1):
        hits = ",".join(record.hits)
        lines.append(f"{rank}\t{record.normalized:.6f}\t{record.total_log10:.6f}"
                     f"\t{record.token_count}\t{hits}\t{record.text}")
    write_text_atomic(args.out, "\n".join(lines) + ("\n" if lines else ""))
    print(f"ranked {len(records)} of {len(sentences)} sentences -> {args.out}")
    return 0


def _cmd_lexicon_match(args) -> int:
    sentences = _read_sentence_lines(args.input)
    hits = langmodel.match_lexicon(sentences, _read_lexicon(args.lexicon))
    text = "".join(f"{','.join(terms)}\t{' '.join(sentence)}\n"  # no copy to end the text
                   for sentence, terms in zip(sentences, hits))
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    matched = sum(1 for terms in hits if terms)
    # With the rows on stdout, the summary goes to stderr, so stdout stays TSV.
    print(f"{matched} of {len(sentences)} sentences contain lexicon terms",
          file=sys.stdout if args.out else sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    sentences = _read_treebank(args.input)
    if args.inventory == "ud-english":
        inventory = LabelInventory.ud_english()
    else:
        inventory = LabelInventory.from_sentences(sentences)
    hard = 0
    for i, sentence in enumerate(sentences):
        for violation in validate(sentence, inventory):
            severity = "warning" if violation.kind == "multi-root" else "error"
            if severity == "error":
                hard += 1
            print(f"sentence {i} token {violation.token_index} "
                  f"[{violation.kind}] {severity}: {violation.message}")
    print(f"validated {len(sentences)} sentences: {hard} errors")
    return 0 if hard == 0 else 1


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line and exit code 2,
    like every other input error; `-h` still prints the usage.
    Subparsers are made from the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_argument_parser() -> argparse.ArgumentParser:
    root = _ArgumentParser(prog="stackparse", description=__doc__.splitlines()[0])
    sub = root.add_subparsers(dest="command", required=True)

    def add(name, fn, configured=True, seeded=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if configured:  # the command reads a RunConfig
            p.add_argument("--config", help="key = value configuration file")
        if seeded:  # and draws from its seed
            p.add_argument("--seed", type=int, default=None)
        return p

    for command, (_, base_class, _, _, help_text) in _TRAIN_COMMANDS.items():
        p = add(command, _cmd_train, seeded=True, help=help_text)
        if base_class is not None:
            p.add_argument("--base-model", required=True, dest="base_model")
        p.add_argument("--train", required=True)
        p.add_argument("--dev", default=None)
        p.add_argument("--embeddings", default=None)
        p.add_argument("--out", required=True)

    p = add("tag", _cmd_tag, configured=False, help="tag a CoNLL-U file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

    p = add("parse", _cmd_parse, help="parse a tagged CoNLL-U file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--decoder", choices=("greedy", "mst"), default=None)

    p = add("eval", _cmd_eval, help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--include-punct", dest="include_punct", default=None)
    p.add_argument("--categories", action="store_true",
                   help="also print per-grammar-category scores")
    p.add_argument("--out", default=None)

    p = add("iaa", _cmd_iaa, configured=False,
            help="inter-annotator agreement between two files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("jackknife", _cmd_jackknife, seeded=True,
            help="k-fold jackknifed tags for a treebank")
    p.add_argument("--train", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--out", required=True)

    p = add("crossfold", _cmd_crossfold, seeded=True,
            help="k-fold cross validation of the parser")
    p.add_argument("--treebank", required=True)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--out", default=None)

    p = add("lm-train", _cmd_lm_train, help="train a Kneser-Ney n-gram model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--order", dest="lm_order", metavar="ORDER", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("lm-rank", _cmd_lm_rank, help="rank sentences by divergence from the LM")
    p.add_argument("--lm", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--min-len", dest="length_min", metavar="MIN_LEN", type=int, default=None)
    p.add_argument("--max-len", dest="length_max", metavar="MAX_LEN", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("lexicon-match", _cmd_lexicon_match, configured=False, help="match lexicon terms")
    p.add_argument("--input", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out", default=None)

    p = add("validate", _cmd_validate, configured=False, help="structural treebank validation")
    p.add_argument("--input", required=True)
    p.add_argument("--inventory", choices=("ud-english", "data"), default="data")

    return root


def main(argv=None) -> int:
    args = build_argument_parser().parse_args(argv)
    _blas()
    try:
        return args.fn(args)
    except OSError as exc:
        what = {FileNotFoundError: "missing file", IsADirectoryError: "is a directory"}.get(
            type(exc)) or (exc.strerror or str(exc)).lower()
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"error: {what}{where}", file=sys.stderr)
        return 2
    except zipfile.BadZipFile as exc:
        print(f"error: not a model archive: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # NonFiniteError, non-finite gradients
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:  # e.g. MST over a very long sentence
        print(f"error: input too large: {type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
