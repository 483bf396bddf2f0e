"""The three workloads: inputs, CLI commands and output checks.

Each workload writes its inputs in `setup`, lists the `stackparse`
commands of one iteration in `commands`, and verifies one iteration's
output files in `check`, which runs outside every timed region.  An op is
one trained model, one sentence tagged or parsed, or one candidate
ranked or matched.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from stackparse import numcore as nc
from stackparse.config import RunConfig
from stackparse.embeddings import PretrainedEmbeddings
from stackparse.modelio import load_model, save_model
from stackparse.parser import ParserModel, decode_greedy, decode_mst, parse, score_arcs
from stackparse.stacking import StackedParser, StackedTagger
from stackparse.tagger import TaggerModel, tag
from stackparse.treebank import parse_conllu

# Smoke size: desk-sized networks, for the benchmark's own tests.
SMOKE_CONFIG = {
    "hidden": 12, "word_dim": 8, "char_dim": 6, "att_dim": 6,
    "parser_word_dim": 8, "tag_dim": 6, "parser_hidden": 12, "parser_layers": 1,
    "d_arc": 10, "d_rel": 6, "stack_hidden": 14,
}
EMBEDDING_DIM = 100


@dataclass
class Command:
    label: str
    argv: list[str]
    outputs: list[str]   # files, relative to the work directory
    ops: int
    tokens: int
    sentences: int


@dataclass
class CheckResult:
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def fail(self, count: int, note: str) -> None:
        if count:
            self.failed += count
            self.notes.append(note)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _read_conllu(path: Path):
    return parse_conllu(path.read_text(encoding="utf-8"))


def _is_single_root_tree(heads) -> bool:
    n = len(heads)
    if any(not 0 <= h <= n for h in heads) or sum(h == 0 for h in heads) != 1:
        return False
    for start in range(1, n + 1):
        node, steps = start, 0
        while node != 0:
            node = heads[node - 1]
            steps += 1
            if steps > n:
                return False
    return True


def _snapshot_metric(path: Path) -> float | None:
    """The dev metric a training command writes into its config snapshot."""
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.lstrip("# ").partition(" = ")
        if key in ("dev_accuracy", "dev_uas"):
            try:
                return float(value)
            except ValueError:
                return None
    return None


# -- train ---------------------------------------------------------------------


class Train:
    """The four trainers, each with a dev set and a 100-dim embeddings file."""

    name = "train"
    SIZES = {
        # source train lengths, target train lengths, dev lengths, epochs
        "full": ([16, 8], [16, 6], [8], 2),
        "smoke": ([19, 6], [19], [5], 1),
    }

    def __init__(self, size: str, seed: int):
        self.size, self.seed = size, seed
        self.source, self.target, self.dev, self.epochs = self.SIZES[size]

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng(self.seed)
        lexicon = gen.make_lexicon(rng)
        _write(work / "src-train.conllu", gen.treebank(rng, lexicon, self.source, False))
        _write(work / "src-dev.conllu", gen.treebank(rng, lexicon, self.dev, False))
        _write(work / "tgt-train.conllu", gen.treebank(rng, lexicon, self.target, True))
        _write(work / "tgt-dev.conllu", gen.treebank(rng, lexicon, self.dev, True))
        _write(work / "vectors.txt", gen.embeddings(rng, lexicon, EMBEDDING_DIM))
        config = {"epochs": self.epochs, **(SMOKE_CONFIG if self.size == "smoke" else {})}
        _write(work / "config.txt", "".join(f"{k} = {v}\n" for k, v in config.items()))

    def commands(self, work: Path) -> list[Command]:
        def trainer(command, side, out, base=None):
            argv = [command, "--train", str(work / f"{side}-train.conllu"),
                    "--dev", str(work / f"{side}-dev.conllu"),
                    "--embeddings", str(work / "vectors.txt"),
                    "--config", str(work / "config.txt"), "--seed", str(self.seed),
                    "--out", str(work / out)]
            if base:
                argv += ["--base-model", str(work / base)]
            lengths = self.source if side == "src" else self.target
            return Command(command, argv, [out, out + ".config"], 1,
                           sum(lengths) * self.epochs, len(lengths) * self.epochs)

        return [trainer("train-tagger", "src", "base-tagger"),
                trainer("train-parser", "src", "base-parser"),
                trainer("train-stacked-tagger", "tgt", "stacked-tagger", "base-tagger"),
                trainer("train-stacked-parser", "tgt", "stacked-parser", "base-parser")]

    def check(self, work: Path, codes: dict[str, int]) -> CheckResult:
        result = CheckResult()
        archive_bytes = 0
        for command, out, side in (("train-tagger", "base-tagger", "src"),
                                   ("train-parser", "base-parser", "src"),
                                   ("train-stacked-tagger", "stacked-tagger", "tgt"),
                                   ("train-stacked-parser", "stacked-parser", "tgt")):
            if codes.get(command) != 0:
                result.fail(1, f"{command} exited with {codes.get(command)}")
                continue
            problems = self._check_model(work, out, side)
            result.fail(1 if problems else 0, f"{command}: {'; '.join(problems)}")
            archive_bytes += (work / out).stat().st_size
        # Written by the four trainers, read back by the two stacked ones.
        read_back = sum((work / base).stat().st_size for base in ("base-tagger", "base-parser")
                        if (work / base).exists())
        result.counts["modelio.archive_mb"] = (archive_bytes + read_back) / 1e6
        return result

    def _check_model(self, work: Path, out: str, side: str) -> list[str]:
        problems = []
        metric = _snapshot_metric(work / (out + ".config"))
        if metric is None or not math.isfinite(metric) or not 0.0 <= metric <= 100.0:
            problems.append(f"dev metric {metric!r} in the config snapshot")
        model = load_model(str(work / out))
        for sentence in _read_conllu(work / f"{side}-dev.conllu"):
            with nc.no_grad():
                loss = float(model.loss(sentence).data)
            if not math.isfinite(loss):
                problems.append(f"non-finite dev loss {loss}")
            if isinstance(model, (TaggerModel, StackedTagger)):
                tags = model.tag(sentence).tags if isinstance(model, StackedTagger) \
                    else tag(model, sentence).tags
                if len(tags) != len(sentence) or not set(tags) <= set(model.tags):
                    problems.append("dev tags not aligned with the input")
            else:
                parsed = parse(model, sentence)
                n = len(sentence)
                if (len(parsed.heads) != n or any(not 0 <= h <= n for h in parsed.heads)
                        or not set(parsed.deprels) <= set(model.rels)):
                    problems.append("dev parse not aligned with the input")
        return problems


# -- infer ---------------------------------------------------------------------


class Infer:
    """tag, parse (greedy with MST repair) and parse --decoder mst with
    seeded paper-scale stacked archives built in setup."""

    name = "infer"
    SIZES = {"full": [10, 20, 50, 80], "smoke": [4, 7, 9]}

    def __init__(self, size: str, seed: int):
        self.size, self.seed = size, seed
        self.lengths = self.SIZES[size]

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng(self.seed)
        lexicon = gen.make_lexicon(rng)
        _write(work / "test.conllu", gen.treebank(rng, lexicon, self.lengths, True))
        config = RunConfig().updated(
            {k: str(v) for k, v in SMOKE_CONFIG.items()} if self.size == "smoke" else {})
        words = [w for ws in lexicon.values() for w in ws]
        vocab = {w: i for i, w in enumerate(words)}
        chars = {c: i for i, c in enumerate(sorted({c for w in words for c in w}))}
        pretrained = PretrainedEmbeddings(
            vocab, rng.normal(0.0, 0.5, (len(words), EMBEDDING_DIM)))
        tags = sorted(lexicon)
        rels = sorted({rel for clause in gen.CLAUSES for rel in clause[3]} | {"conj"})
        tagger_dims = dict(pretrained=pretrained, word_dim=config.word_dim,
                           char_dim=config.char_dim, att_dim=config.att_dim,
                           hidden=config.hidden, layers=config.layers,
                           window=config.window, dropout=config.dropout, rng=rng)
        base_tagger = TaggerModel(tags, vocab, chars, **tagger_dims)
        target_tagger = TaggerModel(tags, vocab, chars, extra_input_dim=len(tags),
                                    **tagger_dims)
        save_model(str(work / "stacked-tagger"), StackedTagger(base_tagger, target_tagger))
        base_parser = ParserModel(
            rels, tags, vocab, pretrained=pretrained, word_dim=config.parser_word_dim,
            tag_dim=config.tag_dim, hidden=config.parser_hidden,
            layers=config.parser_layers, d_arc=config.d_arc, d_rel=config.d_rel,
            dropout=config.parser_dropout, rng=rng)
        stacked_parser = StackedParser(
            base_parser, rels, tags, vocab, pretrained=pretrained,
            word_dim=config.parser_word_dim, tag_dim=config.tag_dim,
            hidden=config.stack_hidden, layers=config.stack_layers,
            dropout=config.parser_dropout, rng=rng)
        save_model(str(work / "stacked-parser"), stacked_parser)

    def commands(self, work: Path) -> list[Command]:
        n, tokens = len(self.lengths), sum(self.lengths)
        test = str(work / "test.conllu")
        return [
            Command("tag", ["tag", "--model", str(work / "stacked-tagger"),
                            "--input", test, "--out", str(work / "tagged.conllu")],
                    ["tagged.conllu"], n, tokens, n),
            Command("parse", ["parse", "--model", str(work / "stacked-parser"),
                              "--input", test, "--out", str(work / "parsed.conllu")],
                    ["parsed.conllu"], n, tokens, n),
            Command("parse-mst", ["parse", "--model", str(work / "stacked-parser"),
                                  "--input", test, "--decoder", "mst",
                                  "--out", str(work / "parsed-mst.conllu")],
                    ["parsed-mst.conllu"], n, tokens, n),
        ]

    def check(self, work: Path, codes: dict[str, int]) -> CheckResult:
        result = CheckResult()
        gold = _read_conllu(work / "test.conllu")
        n = len(gold)
        result.counts["modelio.archive_mb"] = (
            (work / "stacked-tagger").stat().st_size
            + 2 * (work / "stacked-parser").stat().st_size) / 1e6
        outputs = {}
        for label, name in (("tag", "tagged.conllu"), ("parse", "parsed.conllu"),
                            ("parse-mst", "parsed-mst.conllu")):
            if codes.get(label) != 0 or not (work / name).exists():
                result.fail(n, f"{label} exited with {codes.get(label)}")
                continue
            try:
                predicted = _read_conllu(work / name)
            except ValueError as exc:  # ConlluError included
                result.fail(n, f"{label}: unreadable output: {exc}")
                continue
            if len(predicted) != n or any(p.forms != g.forms for p, g in zip(predicted, gold)):
                result.fail(n, f"{label}: output not aligned with the input")
                continue
            outputs[label] = predicted
        if "tag" in outputs:
            tags = set(load_model(str(work / "stacked-tagger")).tags)
            result.fail(sum(not set(s.upos) <= tags for s in outputs["tag"]),
                        "tag: tags outside the inventory")
        if "parse" not in outputs and "parse-mst" not in outputs:
            return result
        model = load_model(str(work / "stacked-parser"))
        rels = set(model.rels)
        for label in ("parse", "parse-mst"):
            bad = sum(not _is_single_root_tree(s.heads) or not set(s.deprels) <= rels
                      for s in outputs.get(label, []))
            result.fail(bad, f"{label}: output that is not a single-rooted labelled tree")
        nontree = multiroot = 0
        below_gold = greedy_mismatch = 0
        for i, sentence in enumerate(gold):
            scores = score_arcs(model, sentence.forms, sentence.upos)
            greedy = decode_greedy(scores)
            nontree += not _is_single_root_tree(greedy)
            multiroot += sum(h == 0 for h in decode_mst(scores)) > 1
            if "parse-mst" in outputs:
                mst = outputs["parse-mst"][i].heads
                score = sum(scores[d, h] for d, h in enumerate(mst, start=1))
                gold_score = sum(scores[d, h] for d, h in enumerate(sentence.heads, start=1))
                below_gold += score < gold_score - 1e-9 * (1.0 + abs(gold_score))
            if "parse" in outputs:
                heads = list(outputs["parse"][i].heads)
                if _is_single_root_tree(greedy):
                    greedy_mismatch += heads != greedy
                elif "parse-mst" in outputs:
                    greedy_mismatch += heads != list(outputs["parse-mst"][i].heads)
        result.fail(below_gold, "parse-mst: a tree scores below the gold tree")
        result.fail(greedy_mismatch, "parse: output differs from the greedy heads "
                                     "(or, for non-trees, from the MST repair)")
        result.counts["parser.greedy_nontree"] = nontree
        result.counts["parser.mst_multiroot"] = multiroot
        result.counts["parser.base_sentences"] = n
        return result


# -- select --------------------------------------------------------------------


def reference_hits(sentence: list[str], terms: list[str]) -> list[str]:
    """Lexicon hits by an n-gram index: first start per term, ordered by
    (start, term).  Independent of langmodel.match_lexicon's scan."""
    lowered = [t.lower() for t in sentence]
    widths = {len(term.split()) for term in terms}
    first: dict[tuple[str, ...], int] = {}
    for width in widths:
        for start in range(len(lowered) - width + 1):
            first.setdefault(tuple(lowered[start:start + width]), start)
    found = {(first[tuple(term.split())], term) for term in terms
             if tuple(term.split()) in first}
    return [term for _, term in sorted(found)]


class Select:
    """lm-train, lm-rank --lexicon and lexicon-match on a Zipfian corpus."""

    name = "select"
    SIZES = {
        # corpus sentences, candidates, lexicon terms, vocabulary
        "full": (1500, 400, 400, 4000),
        "smoke": (60, 20, 20, 80),
    }
    ORDER = 5
    BOUNDS = (5, 50)  # RunConfig length_min / length_max defaults

    def __init__(self, size: str, seed: int):
        self.size, self.seed = size, seed
        self.corpus_n, self.cand_n, self.lex_n, self.vocab_n = self.SIZES[size]
        # Fixed length multisets: corpus 5-40 tokens, candidates 2-60 so
        # that some fall outside the ranking bounds.
        self.corpus_lengths = [5 + i % 36 for i in range(self.corpus_n)]
        self.cand_lengths = [2 + i % 59 for i in range(self.cand_n)]

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng(self.seed)
        vocab = gen.pseudo_words(rng, self.vocab_n)
        shuffle = lambda xs: [xs[int(i)] for i in rng.permutation(len(xs))]
        corpus = gen.zipf_sentences(rng, vocab, shuffle(self.corpus_lengths))
        candidates = gen.zipf_sentences(rng, vocab, shuffle(self.cand_lengths))
        terms = gen.lexicon_terms(rng, vocab, candidates, self.lex_n)
        _write(work / "corpus.txt", "".join(" ".join(s) + "\n" for s in corpus))
        _write(work / "candidates.txt", "".join(" ".join(s) + "\n" for s in candidates))
        _write(work / "lexicon.txt", "".join(t + "\n" for t in terms))

    def commands(self, work: Path) -> list[Command]:
        corpus_tokens = sum(self.corpus_lengths)
        cand_tokens = sum(self.cand_lengths)
        return [
            Command("lm-train", ["lm-train", "--corpus", str(work / "corpus.txt"),
                                 "--order", str(self.ORDER), "--out", str(work / "lm.json")],
                    ["lm.json"], 1, corpus_tokens, self.corpus_n),
            Command("lm-rank", ["lm-rank", "--lm", str(work / "lm.json"),
                                "--input", str(work / "candidates.txt"),
                                "--lexicon", str(work / "lexicon.txt"),
                                "--out", str(work / "ranked.tsv")],
                    ["ranked.tsv"], self.cand_n, cand_tokens, self.cand_n),
            Command("lexicon-match", ["lexicon-match", "--input", str(work / "candidates.txt"),
                                      "--lexicon", str(work / "lexicon.txt"),
                                      "--out", str(work / "hits.tsv")],
                    ["hits.tsv"], self.cand_n, cand_tokens, self.cand_n),
        ]

    def check(self, work: Path, codes: dict[str, int]) -> CheckResult:
        result = CheckResult()
        candidates = [line.split() for line in
                      (work / "candidates.txt").read_text(encoding="utf-8").splitlines()]
        terms = (work / "lexicon.txt").read_text(encoding="utf-8").splitlines()
        if codes.get("lm-train") != 0:
            result.fail(1, f"lm-train exited with {codes.get('lm-train')}")
        else:
            payload = json.loads((work / "lm.json").read_text(encoding="utf-8"))
            result.fail(int(payload.get("order") != self.ORDER), "lm-train: wrong order")
            result.counts["langmodel.json_mb"] = (work / "lm.json").stat().st_size / 1e6
        if codes.get("lm-rank") != 0:
            result.fail(self.cand_n, f"lm-rank exited with {codes.get('lm-rank')}")
        else:
            result.fail(*self._check_ranked(work, candidates, terms))
        if codes.get("lexicon-match") != 0:
            result.fail(self.cand_n, f"lexicon-match exited with {codes.get('lexicon-match')}")
        else:
            lines = (work / "hits.tsv").read_text(encoding="utf-8").splitlines()
            expected = [f"{','.join(reference_hits(s, terms))}\t{' '.join(s)}"
                        for s in candidates]
            wrong = sum(a != b for a, b in zip(lines, expected))
            result.fail(wrong + abs(len(lines) - len(expected)),
                        "lexicon-match: hits differ from the reference")
        return result

    def _check_ranked(self, work: Path, candidates, terms) -> tuple[int, str]:
        low, high = self.BOUNDS
        kept = [s for s in candidates if low <= len(s) <= high]
        expected = {}
        for s in kept:
            expected.setdefault(" ".join(s), []).append(",".join(reference_hits(s, terms)))
        rows = [line.split("\t") for line in
                (work / "ranked.tsv").read_text(encoding="utf-8").splitlines()]
        bad = 0
        previous = -math.inf
        for row in rows:
            if len(row) != 6:
                bad += 1
                continue
            _rank, normalized, total, count, hits, text = row
            value = float(normalized)
            options = expected.get(text)
            if (value < previous or not math.isfinite(float(total))
                    or int(count) != len(text.split()) or not options or hits not in options):
                bad += 1
            else:
                options.remove(hits)
            previous = max(previous, value)
        bad += sum(len(v) for v in expected.values())  # in-bound candidates missing
        return bad, "lm-rank: rows unsorted, missing, extra or with wrong hits"


WORKLOADS = {w.name: w for w in (Train, Infer, Select)}
