"""Graph-based dependency parser with biaffine attention.

Input layer: one (n+1, D) matrix per sentence, row 0 the artificial
root: a frozen pretrained embedding (zeros at the root), a trainable word
embedding and a POS-tag embedding, each table looked up once per
sentence (the root has learned rows of its own).  Feature layer:
multi-layer bi-LSTM with coupled-input-forget cells, then four parallel
single-layer MLP heads (arc-dep, arc-head, rel-dep, rel-head), all on
(n+1, .) matrices.  Output layer: biaffine arc scores over every
(dependent, head) pair and per-label biaffine scores; cross-entropy
training; greedy or maximum-spanning-arborescence decoding.

Arc score matrices are (n+1) x (n+1): row d = dependent, column h =
candidate head, position 0 = root, diagonal = -inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import numcore as nc
from .embeddings import PretrainedEmbeddings, find
from .evaluation import attachment_scores
from .tagger import build_vocab
from .treebank import Sentence, _find_cycles, is_tree


class ParseResult(NamedTuple):
    heads: tuple[int, ...]
    deprels: tuple[str, ...]
    arc_scores: np.ndarray  # (n+1, n+1), -inf diagonal


@dataclass
class ParserForward:
    """Tensors exposed for training, label scoring, and stacking."""

    recurrent: nc.Tensor   # (n+1, 2H) last bi-LSTM layer outputs
    arc_dep: nc.Tensor     # (n+1, d_arc)
    arc_head: nc.Tensor    # (n+1, d_arc)
    rel_dep: nc.Tensor     # (n+1, d_rel)
    rel_head: nc.Tensor    # (n+1, d_rel)
    arc_scores: nc.Tensor  # (n+1, n+1), diagonal unmasked


_MLP_HEADS = ("arc_dep", "arc_head", "rel_dep", "rel_head")


def build_layers(model, rels: Sequence[str], tags: Sequence[str],
                 word_vocab: dict[str, int], pretrained: PretrainedEmbeddings | None,
                 word_dim: int, tag_dim: int, hidden: int, layers: int,
                 d_arc: int, d_rel: int, dropout: float, *, extra_input_dim: int,
                 rng: np.random.Generator | None) -> None:
    """Vocabularies, embedding tables, bi-LSTM and MLP heads shared by the
    base and stacked parsers, drawn from `rng` in that order.  Each
    position's input gets `extra_input_dim` more features at the end."""
    model.rels = tuple(rels)
    model.rel_index = {r: i for i, r in enumerate(model.rels)}
    model.tags = tuple(tags)
    model.tag_vocab = {t: i for i, t in enumerate(model.tags)}
    model.word_vocab = dict(word_vocab)
    model.pretrained = pretrained or PretrainedEmbeddings.empty()
    model.word_dim, model.tag_dim, model.hidden, model.layers = word_dim, tag_dim, hidden, layers
    model.d_arc, model.d_rel, model.dropout = d_arc, d_rel, dropout
    model.best_epoch = model.dev_uas = None
    # Reserved rows: unk = v, root = v + 1 (tags: unk = t, root = t + 1).
    model.word_table = nc.parameter(nc.zeros(len(word_vocab) + 2, word_dim))
    model.tag_table = nc.parameter(nc.glorot_uniform(rng, len(model.tags) + 2, tag_dim))
    model.input_dim = model.pretrained.dim + word_dim + tag_dim + extra_input_dim
    model.lstm_layers = []
    for layer in range(layers):
        dim = model.input_dim if layer == 0 else 2 * hidden
        model.lstm_layers.append(nc.lstm_layer(nc.COUPLED, dim, hidden, rng))
    model.mlp = {}
    for name in _MLP_HEADS:
        out_dim = d_arc if name.startswith("arc") else d_rel
        model.mlp[name] = (nc.parameter(nc.glorot_uniform(rng, out_dim, 2 * hidden)),
                           nc.parameter(nc.zeros(out_dim)))


class ParserModel:
    def __init__(self, rels: Sequence[str], tags: Sequence[str],
                 word_vocab: dict[str, int], *,
                 pretrained: PretrainedEmbeddings | None = None,
                 word_dim: int = 100, tag_dim: int = 100, hidden: int = 400,
                 layers: int = 3, d_arc: int = 500, d_rel: int = 100,
                 dropout: float = 0.33,
                 rng: np.random.Generator | None = None):
        build_layers(self, rels, tags, word_vocab, pretrained, word_dim, tag_dim,
                     hidden, layers, d_arc, d_rel, dropout, extra_input_dim=0, rng=rng)
        self.u_arc = nc.parameter(nc.glorot_uniform(rng, d_arc + 1, d_arc))
        self.u_rel = nc.parameter(nc.glorot_uniform(rng, len(self.rels), d_rel + 1, d_rel + 1))

    # -- parameter bookkeeping -------------------------------------------------

    def input_parameters(self) -> dict[str, nc.Tensor]:
        return {"word_table": self.word_table, "tag_table": self.tag_table}

    def feature_parameters(self) -> dict[str, nc.Tensor]:
        params: dict[str, nc.Tensor] = {}
        for i, (fwd, bwd) in enumerate(self.lstm_layers):
            params.update(fwd.parameters(f"lstm{i}/fwd"))
            params.update(bwd.parameters(f"lstm{i}/bwd"))
        for name, (w, b) in self.mlp.items():
            params[f"mlp/{name}/w"] = w
            params[f"mlp/{name}/b"] = b
        return params

    def parameters(self) -> dict[str, nc.Tensor]:
        params = self.input_parameters()
        params.update(self.feature_parameters())
        params.update(u_arc=self.u_arc, u_rel=self.u_rel)
        return params

    # -- forward ----------------------------------------------------------------

    def word_index(self, form: str) -> int:
        index = find(self.word_vocab, form)
        return len(self.word_vocab) if index is None else index

    def tag_index(self, tag: str) -> int:
        return self.tag_vocab.get(tag, len(self.tags))

    def input_vectors(self, forms: Sequence[str], upos_tags: Sequence[str],
                      rng: np.random.Generator | None = None,
                      base: ParserForward | None = None) -> nc.Tensor:
        """(n+1, input_dim) inputs with the artificial root in row 0; a stacked
        parser passes its base's forward to append its recurrent states."""
        if len(forms) != len(upos_tags):
            raise ValueError("forms and tags must align")
        words = [len(self.word_vocab) + 1] + [self.word_index(f) for f in forms]
        tags = [len(self.tags) + 1] + [self.tag_index(t) for t in upos_tags]
        parts = [self.word_table[words], self.tag_table[tags]]
        if self.pretrained.dim:
            pre = [np.zeros(self.pretrained.dim)] + [self.pretrained.lookup(f) for f in forms]
            parts.insert(0, nc.Tensor(pre))
        if base is not None:
            parts.append(base.recurrent)
        return nc.dropout(nc.concat(parts, axis=1), self.dropout, rng)

    def _forward(self, forms: Sequence[str], upos_tags: Sequence[str],
                 rng: np.random.Generator | None,
                 base: ParserForward | None = None) -> ParserForward:
        """Bi-LSTM, MLP heads and arc scores; with a base forward, its
        recurrent rows join the inputs and its MLP outputs are added."""
        if not forms:
            raise ValueError("cannot parse an empty sentence")
        x = self.input_vectors(forms, upos_tags, rng, base)
        recurrent = nc.dropout(nc.bilstm_encode(self.lstm_layers, x), self.dropout, rng)
        heads = []
        for name in _MLP_HEADS:
            w, b = self.mlp[name]
            out = nc.dropout(nc.leaky_relu(nc.linear(recurrent, w, b)), self.dropout, rng)
            heads.append(out if base is None else out + getattr(base, name))
        arc_dep, arc_head, rel_dep, rel_head = heads
        arc_scores = nc.linear(nc.matmul(_with_ones(arc_dep), self.u_arc), arc_head)
        return ParserForward(recurrent, arc_dep, arc_head, rel_dep, rel_head, arc_scores)

    def forward_full(self, forms: Sequence[str], upos_tags: Sequence[str],
                     rng: np.random.Generator | None = None) -> ParserForward:
        """The sentence's forward, with dropout masks drawn from `rng` in
        forward order when one is given."""
        return self._forward(forms, upos_tags, rng)

    def label_scores(self, rel_dep: nc.Tensor, rel_head: nc.Tensor,
                     heads: Sequence[int]) -> nc.Tensor:
        """(n, |rels|) biaffine label scores for dependents 1..n at `heads`."""
        n = len(heads)
        dep_rows = _with_ones(rel_dep[1:n + 1])
        head_rows = _with_ones(rel_head[list(heads)])
        return nc.bilinear_labels(self.u_rel, dep_rows, head_rows)

    def loss(self, sentence: Sentence, rng: np.random.Generator | None = None) -> nc.Tensor:
        """Mean over tokens of head cross-entropy + label cross-entropy
        (labels conditioned on gold heads)."""
        fw = self.forward_full(sentence.forms, sentence.upos, rng)
        return arc_label_loss(fw, self.label_scores, sentence, self.rel_index)


def _with_ones(a: nc.Tensor) -> nc.Tensor:
    """`a` with a constant-1 column appended (bias absorption for biaffine scoring)."""
    return nc.concat([a, np.ones((a.shape[0], 1))], axis=1)


def arc_label_loss(fw: ParserForward, label_scores_fn, sentence: Sentence,
                   rel_index: dict[str, int]) -> nc.Tensor:
    """Shared training objective for the base and stacked parsers."""
    n = len(sentence)
    gold_heads = list(sentence.heads)
    gold_rels = []
    for token in sentence.tokens:
        if token.deprel not in rel_index:
            raise ValueError(f"gold label {token.deprel!r} not in the inventory")
        gold_rels.append(rel_index[token.deprel])
    dep_rows = fw.arc_scores[1:n + 1]
    allowed = np.ones((n, n + 1), dtype=bool)
    allowed[np.arange(n), np.arange(1, n + 1)] = False  # no self-head
    head_norm = nc.logsumexp_rows_masked(dep_rows, allowed)
    head_gold = dep_rows[np.arange(n), gold_heads]
    head_loss = (head_norm - head_gold).sum()
    labels = label_scores_fn(fw.rel_dep, fw.rel_head, gold_heads)
    label_norm = nc.logsumexp_rows_masked(labels, np.ones(labels.shape, bool))
    label_gold = labels[np.arange(n), gold_rels]
    label_loss = (label_norm - label_gold).sum()
    return (head_loss + label_loss) * (1.0 / n)


# -- scoring wrappers ---------------------------------------------------------


def _scored_forward(model: ParserModel, forms: Sequence[str],
                    upos_tags: Sequence[str]) -> tuple[ParserForward, np.ndarray]:
    """The sentence's forward without a tape, and a copy of its arc scores
    with the self-head diagonal at -inf."""
    with nc.no_grad():
        fw = model.forward_full(forms, upos_tags)
    scores = fw.arc_scores.data.copy()
    np.fill_diagonal(scores, -np.inf)
    return fw, scores


def score_arcs(model: ParserModel, forms: Sequence[str],
               upos_tags: Sequence[str]) -> np.ndarray:
    """(n+1) x (n+1) arc score matrix with the self-head diagonal at -inf."""
    return _scored_forward(model, forms, upos_tags)[1]


def score_labels(model: ParserModel, fw: ParserForward, heads: Sequence[int]) -> np.ndarray:
    """(n, |rels|) label scores from the rel heads of forward `fw` given
    fixed heads; the row argmax is the predicted label."""
    with nc.no_grad():
        return model.label_scores(fw.rel_dep, fw.rel_head, heads).data


# -- decoding -----------------------------------------------------------------------


def decode_greedy(arc_scores: np.ndarray) -> list[int]:
    """head(d) = argmax over columns; ties break toward the smaller head
    index.  The result may contain cycles; see treebank.is_tree."""
    return arc_scores[1:].argmax(axis=1).tolist()


def _arborescence(scores: np.ndarray) -> np.ndarray:
    """Chu-Liu/Edmonds maximum arborescence rooted at node 0.

    `scores[d, h]` is the weight of attaching dependent d to head h; -inf
    is a forbidden arc, and row 0 and the diagonal must be -inf.  Returns
    each node's head (entry 0 is meaningless).
    """
    heads = scores.argmax(axis=1)
    stuck = np.flatnonzero(scores[1:].max(axis=1) == -np.inf)
    if stuck.size:
        raise ValueError(f"node {stuck[0] + 1} has no candidate head")
    cycles = _find_cycles({d: int(h) for d, h in enumerate(heads[1:].tolist(), start=1)})
    if not cycles:
        return heads
    cycle = np.sort(cycles[0])
    keep = np.setdiff1d(np.arange(len(scores)), cycle)
    c = len(keep)  # the contracted cycle's index in the smaller problem
    # An outside dependent's arc into the cycle takes its best head there; an
    # arc entering the cycle at d replaces d's cycle arc, so it scores the gain.
    leaving = scores[np.ix_(keep, cycle)]
    entering = scores[np.ix_(cycle, keep)] - scores[cycle, heads[cycle]][:, None]
    sub = np.full((c + 1, c + 1), -np.inf)
    sub[:c, :c] = scores[np.ix_(keep, keep)]
    sub[:c, c] = leaving.max(axis=1)
    sub[c, :c] = entering.max(axis=0)
    sub_heads = _arborescence(sub)
    outer = sub_heads[:c]
    heads[keep] = np.where(outer == c, cycle[leaving.argmax(axis=1)], np.append(keep, -1)[outer])
    entry = sub_heads[c]
    heads[cycle[entering[:, entry].argmax()]] = keep[entry]
    return heads


def decode_mst(arc_scores: np.ndarray, single_root: bool = False) -> list[int]:
    """Maximum-scoring arborescence rooted at position 0 (Chu-Liu/Edmonds).

    Non-finite scores are forbidden arcs; raises ValueError when no
    arborescence exists.  Ties go to the smaller index: each dependent's
    best head, the head inside a contracted cycle that an outside
    dependent takes, and the cycle node that an entering arc breaks.

    With single_root=True and more than one root child, every root arc is
    lowered by more than any two trees can differ and the problem is
    solved once more, so the best tree with exactly one root child wins
    (Zmigrod et al., 2020).  If no such tree exists, the unconstrained
    tree is returned.
    """
    scores = np.where(np.isfinite(arc_scores), arc_scores, -np.inf)
    np.fill_diagonal(scores, -np.inf)
    scores[0] = -np.inf
    heads = _arborescence(scores)
    if single_root and np.count_nonzero(heads[1:] == 0) > 1:
        finite = scores[np.isfinite(scores)]
        scores[1:, 0] -= len(scores) * (finite.max() - finite.min()) + 1.0
        rooted = _arborescence(scores)
        if np.count_nonzero(rooted[1:] == 0) == 1:
            heads = rooted
    return heads[1:].tolist()


# -- training and inference -----------------------------------------------------------


def parse(model: ParserModel, sentence: Sentence, decoder: str = "greedy",
          repair: bool = False) -> ParseResult:
    """Decode heads with the chosen decoder, then labels given those heads.

    With repair=True, greedy heads that do not form a tree are replaced by
    the single-rooted MST of the same scores, as CoNLL-U output needs trees.
    """
    if decoder not in ("greedy", "mst"):
        raise ValueError(f"unknown decoder {decoder!r}")
    fw, scores = _scored_forward(model, sentence.forms, sentence.upos)
    if decoder == "greedy":
        heads = decode_greedy(scores)
    if decoder == "mst" or (repair and not is_tree(heads)):
        heads = decode_mst(scores, single_root=True)
    labels = score_labels(model, fw, heads)
    deprels = tuple(model.rels[int(labels[i].argmax())] for i in range(len(heads)))
    return ParseResult(tuple(heads), deprels, scores)


def dev_uas(model, gold: list[Sentence], decoder: str) -> float:
    """UAS of `model` on a dev set, for epoch selection."""
    predicted = []
    for sentence in gold:
        result = parse(model, sentence, decoder=decoder)
        predicted.append(sentence.with_tree(result.heads, result.deprels))
    return attachment_scores(gold, predicted).uas


def check_trainable(treebank: list[Sentence]) -> None:
    for i, sentence in enumerate(treebank):
        n = len(sentence)
        for token in sentence.tokens:
            if token.head > n:
                raise ValueError(
                    f"sentence {i}: head {token.head} out of range for length {n}")


def train_parser(treebank: list[Sentence], dev: list[Sentence], config,
                 pretrained: PretrainedEmbeddings | None = None) -> ParserModel:
    """Adagrad over the arc+label cross-entropy with dev-UAS epoch selection."""
    if not treebank:
        raise ValueError("cannot train a parser on an empty treebank")
    check_trainable(treebank)
    rng = nc.make_rng(config.seed)
    model = ParserModel(
        sorted({t.deprel for s in treebank for t in s.tokens}),
        sorted({t.upos for s in treebank for t in s.tokens}),
        build_vocab(f for s in treebank for f in s.forms),
        pretrained=pretrained,
        word_dim=config.parser_word_dim, tag_dim=config.tag_dim,
        hidden=config.parser_hidden, layers=config.parser_layers,
        d_arc=config.d_arc, d_rel=config.d_rel, dropout=config.parser_dropout,
        rng=rng,
    )
    model.best_epoch, model.dev_uas = nc.fit(
        model.parameters(), model.loss, treebank, dev,
        lambda gold: dev_uas(model, gold, config.decoder), config, rng)
    return model
