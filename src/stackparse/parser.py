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


class ParserModel:
    """A base parser, or with a trained `base` parser the stacked parser of
    feature-level neural stacking: each position's input appends the base's
    last-layer recurrent states, its MLP outputs are added position-wise
    to the base's, so `d_arc` and `d_rel` are the base's, and its biaffine
    tensors start as copies of the base's.  Its own `parameters` exclude
    the base's.
    """

    def __init__(self, rels: Sequence[str], tags: Sequence[str],
                 word_vocab: dict[str, int], *,
                 pretrained: PretrainedEmbeddings | None = None,
                 word_dim: int = 100, tag_dim: int = 100, hidden: int = 400,
                 layers: int = 3, d_arc: int = 500, d_rel: int = 100,
                 dropout: float = 0.33, base: ParserModel | None = None,
                 train_base_embeddings: bool = False,
                 rng: np.random.Generator | None = None):
        if base is not None:
            if len(rels) != len(base.rels):
                raise ValueError("target label inventory size must match the base "
                                 "(biaffine tensor copy requires equal shapes)")
            d_arc, d_rel = base.d_arc, base.d_rel
        self.base, self.train_base_embeddings = base, train_base_embeddings
        self.rels = tuple(rels)
        self.rel_index = {r: i for i, r in enumerate(self.rels)}
        self.tags = tuple(tags)
        self.tag_vocab = {t: i for i, t in enumerate(self.tags)}
        self.word_vocab = dict(word_vocab)
        self.pretrained = pretrained or PretrainedEmbeddings.empty()
        self.word_dim, self.tag_dim, self.hidden, self.layers = word_dim, tag_dim, hidden, layers
        self.d_arc, self.d_rel, self.dropout = d_arc, d_rel, dropout
        self.best_epoch = self.dev_uas = None
        # Drawn from rng in this order.  Reserved rows: unk = v, root = v + 1
        # (tags: unk = t, root = t + 1).
        self.word_table = nc.parameter(nc.zeros(len(word_vocab) + 2, word_dim))
        self.tag_table = nc.parameter(nc.glorot_uniform(rng, len(self.tags) + 2, tag_dim))
        stacked_dim = 0 if base is None else 2 * base.hidden
        self.input_dim = self.pretrained.dim + word_dim + tag_dim + stacked_dim
        self.lstm_layers = []
        for layer in range(layers):
            dim = self.input_dim if layer == 0 else 2 * hidden
            self.lstm_layers.append(nc.lstm_layer(nc.COUPLED, dim, hidden, rng))
        self.mlp = {}
        for name in _MLP_HEADS:
            out_dim = d_arc if name.startswith("arc") else d_rel
            self.mlp[name] = (nc.parameter(nc.glorot_uniform(rng, out_dim, 2 * hidden)),
                              nc.parameter(nc.zeros(out_dim)))
        if base is None:
            self.u_arc = nc.parameter(nc.glorot_uniform(rng, d_arc + 1, d_arc))
            self.u_rel = nc.parameter(nc.glorot_uniform(rng, len(self.rels), d_rel + 1,
                                                        d_rel + 1))
        else:  # copied, not drawn: a draw here would shift every later use of rng
            self.u_arc = nc.Tensor(base.u_arc.data.copy(), requires_grad=True)
            self.u_rel = nc.Tensor(base.u_rel.data.copy(), requires_grad=True)

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

    def forward_full(self, forms: Sequence[str], upos_tags: Sequence[str],
                     rng: np.random.Generator | None = None) -> ParserForward:
        """Bi-LSTM, MLP heads and arc scores, with dropout masks drawn from
        `rng` in forward order when one is given.  A stacked parser first
        runs its base's forward without dropout."""
        if not forms:
            raise ValueError("cannot parse an empty sentence")
        base = None if self.base is None else self.base.forward_full(forms, upos_tags)
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
        return arc_label_loss(self, fw, sentence)


def _with_ones(a: nc.Tensor) -> nc.Tensor:
    """`a` with a constant-1 column appended (bias absorption for biaffine scoring)."""
    return nc.concat([a, np.ones((a.shape[0], 1))], axis=1)


def arc_label_loss(model: ParserModel, fw: ParserForward, sentence: Sentence) -> nc.Tensor:
    """Shared training objective for the base and stacked parsers."""
    n = len(sentence)
    gold_heads = list(sentence.heads)
    gold_rels = []
    for token in sentence.tokens:
        if token.deprel not in model.rel_index:
            raise ValueError(f"gold label {token.deprel!r} not in the inventory")
        gold_rels.append(model.rel_index[token.deprel])
    allowed = np.ones((n, n + 1), dtype=bool)
    allowed[np.arange(n), np.arange(1, n + 1)] = False  # no self-head
    head_loss = nc.cross_entropy_rows(fw.arc_scores[1:n + 1], allowed, gold_heads)
    labels = model.label_scores(fw.rel_dep, fw.rel_head, gold_heads)
    label_loss = nc.cross_entropy_rows(labels, np.ones(labels.shape, bool), gold_rels)
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
