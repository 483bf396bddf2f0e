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
import itertools
import math
import sys
import zipfile

from . import evaluation, langmodel, parser as parsing, stacking, tagger as tagging
from .config import RunConfig, load_config
from .embeddings import load_embeddings
from .modelio import load_model, save_model, write_text_atomic
from .stacking import StackedParser, StackedTagger
from .treebank import LabelInventory, Sentence, parse_conllu, validate, write_conllu


def _read_treebank(path: str) -> list[Sentence]:
    with open(path, encoding="utf-8") as f:
        return parse_conllu(f.read())


def _read_sentence_lines(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as f:
        return [line.split() for line in f if line.strip()]


def _effective_config(args) -> RunConfig:
    config = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides: dict[str, str] = {}
    for key in ("seed", "decoder", "include_punct", "k", "folds",
                "lm_order", "length_min", "length_max"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = str(value)
    if overrides:
        config = config.updated(overrides)
    return config


def _load_pretrained(args):
    if getattr(args, "embeddings", None):
        return load_embeddings(args.embeddings)
    return None


def _write_snapshot(out_path: str, config: RunConfig, extra: dict[str, object]) -> None:
    write_text_atomic(out_path + ".config", config.to_text(extra))


def _tag_with(model, sentence: Sentence):
    if isinstance(model, StackedTagger):
        return model.tag(sentence)
    return tagging.tag(model, sentence)


# -- commands -------------------------------------------------------------------


def _cmd_train_tagger(args) -> int:
    config = _effective_config(args)
    train = _read_treebank(args.train)
    dev = _read_treebank(args.dev) if args.dev else []
    model = tagging.train_tagger(train, dev, config, pretrained=_load_pretrained(args))
    save_model(args.out, model)
    _write_snapshot(args.out, config, {"command": "train-tagger",
                                       "best_epoch": model.best_epoch,
                                       "dev_accuracy": model.dev_accuracy})
    print(f"saved tagger to {args.out} (best epoch {model.best_epoch}, "
          f"dev accuracy {model.dev_accuracy})")
    return 0


def _cmd_train_parser(args) -> int:
    config = _effective_config(args)
    train = _read_treebank(args.train)
    dev = _read_treebank(args.dev) if args.dev else []
    model = parsing.train_parser(train, dev, config, pretrained=_load_pretrained(args))
    save_model(args.out, model)
    _write_snapshot(args.out, config, {"command": "train-parser",
                                       "best_epoch": model.best_epoch,
                                       "dev_uas": model.dev_uas})
    print(f"saved parser to {args.out} (best epoch {model.best_epoch}, "
          f"dev UAS {model.dev_uas})")
    return 0


def _cmd_train_stacked_tagger(args) -> int:
    config = _effective_config(args)
    base = load_model(args.base_model)
    if not isinstance(base, tagging.TaggerModel):
        raise ValueError(f"{args.base_model} is not a base tagger archive")
    train = _read_treebank(args.train)
    dev = _read_treebank(args.dev) if args.dev else []
    stacked = stacking.train_stacked_tagger(base, train, dev, config,
                                            pretrained=_load_pretrained(args))
    save_model(args.out, stacked)
    _write_snapshot(args.out, config, {"command": "train-stacked-tagger",
                                       "best_epoch": stacked.target.best_epoch,
                                       "dev_accuracy": stacked.target.dev_accuracy})
    print(f"saved stacked tagger to {args.out} "
          f"(best epoch {stacked.target.best_epoch}, "
          f"dev accuracy {stacked.target.dev_accuracy})")
    return 0


def _cmd_train_stacked_parser(args) -> int:
    config = _effective_config(args)
    base = load_model(args.base_model)
    if not isinstance(base, parsing.ParserModel):
        raise ValueError(f"{args.base_model} is not a base parser archive")
    train = _read_treebank(args.train)
    dev = _read_treebank(args.dev) if args.dev else []
    stacked = stacking.train_stacked_parser(base, train, dev, config,
                                            pretrained=_load_pretrained(args))
    save_model(args.out, stacked)
    _write_snapshot(args.out, config, {"command": "train-stacked-parser",
                                       "best_epoch": stacked.best_epoch,
                                       "dev_uas": stacked.dev_uas})
    print(f"saved stacked parser to {args.out} (best epoch {stacked.best_epoch}, "
          f"dev UAS {stacked.dev_uas})")
    return 0


def _cmd_tag(args) -> int:
    model = load_model(args.model)
    if not isinstance(model, (tagging.TaggerModel, StackedTagger)):
        raise ValueError(f"{args.model} is not a tagger archive")
    sentences = _read_treebank(args.input)
    tagged = [s.with_upos(_tag_with(model, s).tags) for s in sentences]
    write_text_atomic(args.out, write_conllu(tagged))
    print(f"tagged {len(tagged)} sentences -> {args.out}")
    return 0


def _cmd_parse(args) -> int:
    config = _effective_config(args)
    model = load_model(args.model)
    if not isinstance(model, (parsing.ParserModel, StackedParser)):
        raise ValueError(f"{args.model} is not a parser archive")
    decoder = config.decoder
    sentences = _read_treebank(args.input)
    parsed = []
    for sentence in sentences:
        result = parsing.parse(model, sentence, decoder=decoder, repair=True)
        parsed.append(sentence.with_tree(result.heads, result.deprels))
    write_text_atomic(args.out, write_conllu(parsed))
    print(f"parsed {len(parsed)} sentences with {decoder} decoding -> {args.out}")
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
        return lambda s: tagging.tag(model, s).tags

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

        def predict(sentence: Sentence) -> Sentence:
            result = parsing.parse(model, sentence, decoder=config.decoder)
            return sentence.with_tree(result.heads, result.deprels)

        return predict

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
    with open(args.lm, encoding="utf-8") as f:
        model = langmodel.NgramLM.from_json(f.read())
    sentences = _read_sentence_lines(args.input)
    lexicon = None
    if args.lexicon:
        with open(args.lexicon, encoding="utf-8") as f:
            lexicon = [line.strip().lower() for line in f if line.strip()]
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
    with open(args.lexicon, encoding="utf-8") as f:
        lexicon = [line.strip().lower() for line in f if line.strip()]
    hits = langmodel.match_lexicon(sentences, lexicon)
    lines = [f"{','.join(terms)}\t{' '.join(sentence)}"
             for sentence, terms in zip(sentences, hits)]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    matched = sum(1 for terms in hits if terms)
    print(f"{matched} of {len(sentences)} sentences contain lexicon terms")
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


def build_argument_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="stackparse",
                                   description=__doc__.splitlines()[0])
    sub = root.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--seed", type=int, default=None)
        return p

    p = add("train-tagger", _cmd_train_tagger, help="train a base POS tagger")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--out", required=True)

    p = add("train-parser", _cmd_train_parser, help="train a base parser")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--out", required=True)

    p = add("train-stacked-tagger", _cmd_train_stacked_tagger,
            help="train a stacked tagger on a base tagger")
    p.add_argument("--base-model", required=True, dest="base_model")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--out", required=True)

    p = add("train-stacked-parser", _cmd_train_stacked_parser,
            help="train a stacked parser on a base parser")
    p.add_argument("--base-model", required=True, dest="base_model")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--out", required=True)

    p = add("tag", _cmd_tag, help="tag a CoNLL-U file")
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

    p = add("iaa", _cmd_iaa, help="inter-annotator agreement between two files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("jackknife", _cmd_jackknife,
            help="k-fold jackknifed tags for a treebank")
    p.add_argument("--train", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--out", required=True)

    p = add("crossfold", _cmd_crossfold, help="k-fold cross validation of the parser")
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

    p = add("lexicon-match", _cmd_lexicon_match, help="match lexicon terms")
    p.add_argument("--input", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out", default=None)

    p = add("validate", _cmd_validate, help="structural treebank validation")
    p.add_argument("--input", required=True)
    p.add_argument("--inventory", choices=("ud-english", "data"), default="data")

    return root


def main(argv=None) -> int:
    args = build_argument_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 2
    except IsADirectoryError as exc:
        print(f"error: is a directory: {exc.filename}", file=sys.stderr)
        return 2
    except zipfile.BadZipFile as exc:
        print(f"error: not a model archive: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # NonFiniteError, NaN gradients
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
