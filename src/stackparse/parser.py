"""Graph-based dependency parser with biaffine attention.

Input layer: frozen pretrained embedding + trainable word embedding +
POS-tag embedding per position, with a learned artificial-root position
prepended.  Feature layer: multi-layer bi-LSTM with coupled-input-forget
cells, then four parallel single-layer MLP heads (arc-dep, arc-head,
rel-dep, rel-head).  Output layer: biaffine arc scores over every
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
from .embeddings import PretrainedEmbeddings
from .numcore import biaffine
from .tagger import build_vocab
from .treebank import Sentence, is_tree


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


class ParserModel:
    def __init__(self, rels: Sequence[str], tags: Sequence[str],
                 word_vocab: dict[str, int], *,
                 pretrained: PretrainedEmbeddings | None = None,
                 word_dim: int = 100, tag_dim: int = 100, hidden: int = 400,
                 layers: int = 3, d_arc: int = 500, d_rel: int = 100,
                 dropout: float = 0.33,
                 rng: np.random.Generator | None = None):
        self.rels = tuple(rels)
        self.rel_index = {r: i for i, r in enumerate(self.rels)}
        self.tags = tuple(tags)
        self.tag_vocab = {t: i for i, t in enumerate(self.tags)}
        self.word_vocab = dict(word_vocab)
        self.pretrained = pretrained or PretrainedEmbeddings.empty()
        self.word_dim = word_dim
        self.tag_dim = tag_dim
        self.hidden = hidden
        self.layers = layers
        self.d_arc = d_arc
        self.d_rel = d_rel
        self.dropout = dropout
        self.best_epoch: int | None = None
        self.dev_uas: float | None = None

        def glorot(rows, cols):
            if rng is None:
                return nc.zeros(rows, cols)
            return nc.glorot_uniform(rng, rows, cols)

        v = len(word_vocab)
        t = len(self.tags)
        # Reserved rows: unk = v, root = v + 1 (tags: unk = t, root = t + 1).
        self.word_table = nc.Tensor(nc.zeros(v + 2, word_dim), requires_grad=True)
        self.tag_table = nc.Tensor(glorot(t + 2, tag_dim), requires_grad=True)
        self.input_dim = self.pretrained.dim + word_dim + tag_dim
        self.lstm_layers: list[tuple[nc.LstmCell, nc.LstmCell]] = []
        for layer in range(layers):
            dim = self.input_dim if layer == 0 else 2 * hidden
            self.lstm_layers.append((nc.LstmCell(nc.COUPLED, dim, hidden, rng),
                                     nc.LstmCell(nc.COUPLED, dim, hidden, rng)))
        self.mlp = {}
        for name, out_dim in (("arc_dep", d_arc), ("arc_head", d_arc),
                              ("rel_dep", d_rel), ("rel_head", d_rel)):
            self.mlp[name] = (nc.Tensor(glorot(out_dim, 2 * hidden), requires_grad=True),
                              nc.Tensor(nc.zeros(out_dim), requires_grad=True))
        self.u_arc = nc.Tensor(glorot(d_arc + 1, d_arc), requires_grad=True)
        if rng is None:
            u_rel = nc.zeros(len(self.rels), d_rel + 1, d_rel + 1)
        else:
            u_rel = np.stack([nc.glorot_uniform(rng, d_rel + 1, d_rel + 1)
                              for _ in self.rels])
        self.u_rel = nc.Tensor(u_rel, requires_grad=True)

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

    def scoring_parameters(self) -> dict[str, nc.Tensor]:
        return {"u_arc": self.u_arc, "u_rel": self.u_rel}

    def parameters(self) -> dict[str, nc.Tensor]:
        params = self.input_parameters()
        params.update(self.feature_parameters())
        params.update(self.scoring_parameters())
        return params

    def constants(self) -> dict[str, np.ndarray]:
        return {"pretrained_table": self.pretrained.matrix}

    # -- forward ----------------------------------------------------------------

    def word_index(self, form: str) -> int:
        index = self.word_vocab.get(form)
        if index is None:
            index = self.word_vocab.get(form.lower())
        return len(self.word_vocab) if index is None else index

    def tag_index(self, tag: str) -> int:
        return self.tag_vocab.get(tag, len(self.tags))

    def input_vectors(self, forms: Sequence[str], upos_tags: Sequence[str],
                      training: bool = False,
                      rng: np.random.Generator | None = None) -> list[nc.Tensor]:
        """Per-position inputs with the artificial root at position 0."""
        if len(forms) != len(upos_tags):
            raise ValueError("forms and tags must align")
        root_word = len(self.word_vocab) + 1
        root_tag = len(self.tags) + 1
        vecs = []
        zero_pre = nc.Tensor(np.zeros(self.pretrained.dim)) if self.pretrained.dim else None
        parts = ([zero_pre] if zero_pre is not None else []) + [
            nc.row(self.word_table, root_word), nc.row(self.tag_table, root_tag)]
        vecs.append(nc.concat(parts))
        for form, tag in zip(forms, upos_tags):
            parts = []
            if self.pretrained.dim:
                parts.append(nc.Tensor(self.pretrained.lookup(form)))
            parts.append(nc.row(self.word_table, self.word_index(form)))
            parts.append(nc.row(self.tag_table, self.tag_index(tag)))
            vecs.append(nc.concat(parts))
        if training and self.dropout:
            vecs = [nc.dropout(v, self.dropout, rng) for v in vecs]
        return vecs

    def _mlp_apply(self, name: str, recurrent: nc.Tensor, training: bool,
                   rng: np.random.Generator | None) -> nc.Tensor:
        w, b = self.mlp[name]
        out = nc.leaky_relu(nc.matmul(recurrent, nc.transpose(w)) + b)
        if training and self.dropout:
            out = nc.dropout(out, self.dropout, rng)
        return out

    def forward_full(self, forms: Sequence[str], upos_tags: Sequence[str],
                     training: bool = False,
                     rng: np.random.Generator | None = None) -> ParserForward:
        if not forms:
            raise ValueError("cannot parse an empty sentence")
        vecs = self.input_vectors(forms, upos_tags, training, rng)
        hs = nc.bilstm_encode(self.lstm_layers, vecs)
        if training and self.dropout:
            hs = [nc.dropout(h, self.dropout, rng) for h in hs]
        recurrent = nc.stack_rows(hs)
        arc_dep = self._mlp_apply("arc_dep", recurrent, training, rng)
        arc_head = self._mlp_apply("arc_head", recurrent, training, rng)
        rel_dep = self._mlp_apply("rel_dep", recurrent, training, rng)
        rel_head = self._mlp_apply("rel_head", recurrent, training, rng)
        arc_scores = nc.matmul(nc.matmul(nc.append_ones_col(arc_dep), self.u_arc),
                               nc.transpose(arc_head))
        return ParserForward(recurrent, arc_dep, arc_head, rel_dep, rel_head, arc_scores)

    def label_scores(self, rel_dep: nc.Tensor, rel_head: nc.Tensor,
                     heads: Sequence[int]) -> nc.Tensor:
        """(n, |rels|) biaffine label scores for dependents 1..n at `heads`."""
        n = len(heads)
        dep_rows = nc.append_ones_col(nc.take_rows(rel_dep, list(range(1, n + 1))))
        head_rows = nc.append_ones_col(nc.take_rows(rel_head, list(heads)))
        return nc.bilinear_labels(self.u_rel, dep_rows, head_rows)

    def loss(self, sentence: Sentence, training: bool = False,
             rng: np.random.Generator | None = None) -> nc.Tensor:
        """Mean over tokens of head cross-entropy + label cross-entropy
        (labels conditioned on gold heads)."""
        fw = self.forward_full(sentence.forms, sentence.upos, training, rng)
        return arc_label_loss(fw, self.label_scores, sentence, self.rel_index)


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
    dep_rows = nc.slice2d(fw.arc_scores, slice(1, n + 1), slice(0, n + 1))
    allowed = np.ones((n, n + 1), dtype=bool)
    allowed[np.arange(n), np.arange(1, n + 1)] = False  # no self-head
    head_norm = nc.logsumexp_rows_masked(dep_rows, allowed)
    head_gold = nc.gather(dep_rows, list(range(n)), gold_heads)
    head_loss = (head_norm - head_gold).sum()
    labels = label_scores_fn(fw.rel_dep, fw.rel_head, gold_heads)
    label_norm = nc.logsumexp(labels, axis=1)
    label_gold = nc.gather(labels, list(range(n)), gold_rels)
    label_loss = (label_norm - label_gold).sum()
    return (head_loss + label_loss) * (1.0 / n)


# -- scoring wrappers ---------------------------------------------------------


def score_arcs(model: ParserModel, forms: Sequence[str],
               upos_tags: Sequence[str]) -> np.ndarray:
    """(n+1) x (n+1) arc score matrix with the self-head diagonal at -inf."""
    with nc.no_grad():
        fw = model.forward_full(forms, upos_tags)
    scores = fw.arc_scores.data.copy()
    np.fill_diagonal(scores, -np.inf)
    return scores


def score_labels(model: ParserModel, recurrent, heads: Sequence[int]) -> np.ndarray:
    """Per-token label scores given fixed heads; argmax is the prediction."""
    with nc.no_grad():
        rec = recurrent if isinstance(recurrent, nc.Tensor) else nc.Tensor(recurrent)
        rel_dep = model._mlp_apply("rel_dep", rec, False, None)
        rel_head = model._mlp_apply("rel_head", rec, False, None)
        return model.label_scores(rel_dep, rel_head, heads).data


# -- decoding -----------------------------------------------------------------------


def decode_greedy(arc_scores: np.ndarray) -> list[int]:
    """head(d) = argmax over columns; ties break toward the smaller head
    index.  The result may contain cycles; see heads_form_tree."""
    n = arc_scores.shape[0] - 1
    return [int(arc_scores[d].argmax()) for d in range(1, n + 1)]


def heads_form_tree(heads: Sequence[int]) -> bool:
    return is_tree(heads)


def _find_pointer_cycle(best: dict[int, int]) -> list[int] | None:
    done: set[int] = set()
    for start in best:
        if start in done:
            continue
        path: list[int] = []
        on_path: dict[int, int] = {}
        node = start
        while node in best and node not in done and node not in on_path:
            on_path[node] = len(path)
            path.append(node)
            node = best[node]
        if node in on_path:
            return path[on_path[node]:]
        done.update(path)
    return None


def _cle(nodes: list[int], scores: dict[tuple[int, int], float],
         next_id: int) -> dict[int, int]:
    """Chu-Liu/Edmonds maximum arborescence rooted at node 0.

    `scores[(d, h)]` is the weight of attaching dependent d to head h;
    missing pairs are forbidden.  Returns head assignments for all
    non-root nodes.
    """
    best: dict[int, int] = {}
    for d in nodes:
        if d == 0:
            continue
        options = [(scores[(d, h)], h) for h in nodes if h != d and (d, h) in scores]
        if not options:
            raise ValueError(f"node {d} has no candidate head")
        score, head = max(options, key=lambda pair: (pair[0], -pair[1]))
        best[d] = head
    cycle = _find_pointer_cycle(best)
    if cycle is None:
        return best

    cyc = set(cycle)
    cyc_score = sum(scores[(d, best[d])] for d in cyc)
    c = next_id
    new_nodes = [v for v in nodes if v not in cyc] + [c]
    new_scores: dict[tuple[int, int], float] = {}
    leave_choice: dict[int, int] = {}  # outside dependent -> chosen head inside the cycle
    enter_choice: dict[int, int] = {}  # outside head -> cycle node whose arc is replaced
    for d in nodes:
        if d == 0 or d in cyc:
            continue
        for h in nodes:
            if h == d:
                continue
            if (d, h) not in scores:
                continue
            if h in cyc:
                candidate = scores[(d, h)]
                if (d, c) not in new_scores or candidate > new_scores[(d, c)]:
                    new_scores[(d, c)] = candidate
                    leave_choice[d] = h
            else:
                new_scores[(d, h)] = scores[(d, h)]
    for h in nodes:
        if h in cyc:
            continue
        best_value = None
        best_d = None
        for d in cyc:
            if (d, h) not in scores:
                continue
            value = cyc_score + scores[(d, h)] - scores[(d, best[d])]
            if best_value is None or value > best_value:
                best_value, best_d = value, d
        if best_d is not None:
            new_scores[(c, h)] = best_value
            enter_choice[h] = best_d
    sub = _cle(new_nodes, new_scores, next_id + 1)

    heads: dict[int, int] = {}
    entered_from = None
    for d, h in sub.items():
        if d == c:
            entered_from = h
        elif h == c:
            heads[d] = leave_choice[d]
        else:
            heads[d] = h
    broken = enter_choice[entered_from]
    for d in cyc:
        heads[d] = entered_from if d == broken else best[d]
    return heads


def decode_mst(arc_scores: np.ndarray, single_root: bool = False) -> list[int]:
    """Maximum-scoring arborescence rooted at position 0 (Chu-Liu/Edmonds).

    With single_root=True, an extra pass re-roots all but the best
    root-child candidate so exactly one token attaches to the root.
    """
    m = arc_scores.shape[0]
    n = m - 1
    if n == 0:
        return []
    scores: dict[tuple[int, int], float] = {}
    for d in range(1, m):
        for h in range(m):
            if h != d and np.isfinite(arc_scores[d, h]):
                scores[(d, h)] = float(arc_scores[d, h])

    def solve(table: dict[tuple[int, int], float]) -> list[int]:
        assignment = _cle(list(range(m)), table, m)
        return [assignment[d] for d in range(1, m)]

    heads = solve(scores)
    if single_root and sum(1 for h in heads if h == 0) > 1:
        best_heads, best_total = None, None
        for candidate in range(1, m):
            if (candidate, 0) not in scores:
                continue
            constrained = {(d, h): s for (d, h), s in scores.items()
                           if h != 0 or d == candidate}
            try:
                attempt = solve(constrained)
            except ValueError:
                continue
            total = sum(arc_scores[d, h] for d, h in enumerate(attempt, start=1))
            if best_total is None or total > best_total:
                best_heads, best_total = attempt, total
        if best_heads is not None:
            heads = best_heads
    return heads


# -- training and inference -----------------------------------------------------------


def parse(model: ParserModel, sentence: Sentence, tags: Sequence[str] | None = None,
          decoder: str = "greedy", repair: bool = False) -> ParseResult:
    """Decode heads with the chosen decoder, then labels given those heads.

    With repair=True, greedy heads that do not form a tree are replaced by
    the single-rooted MST of the same scores, as CoNLL-U output needs trees.
    """
    if decoder not in ("greedy", "mst"):
        raise ValueError(f"unknown decoder {decoder!r}")
    tags = tuple(tags) if tags is not None else sentence.upos
    with nc.no_grad():
        fw = model.forward_full(sentence.forms, tags)
    scores = fw.arc_scores.data.copy()
    np.fill_diagonal(scores, -np.inf)
    if decoder == "greedy":
        heads = decode_greedy(scores)
    if decoder == "mst" or (repair and not heads_form_tree(heads)):
        heads = decode_mst(scores, single_root=True)
    with nc.no_grad():
        labels = model.label_scores(fw.rel_dep, fw.rel_head, heads).data
    deprels = tuple(model.rels[int(labels[i].argmax())] for i in range(len(heads)))
    return ParseResult(tuple(heads), deprels, scores)


def _parser_uas(model: ParserModel, sentences: list[Sentence], decoder: str) -> float:
    total = correct = 0
    for sentence in sentences:
        result = parse(model, sentence, decoder=decoder)
        for token, head in zip(sentence.tokens, result.heads):
            total += 1
            correct += token.head == head
    return 100.0 * correct / total if total else 0.0


def check_trainable(treebank: list[Sentence]) -> None:
    for i, sentence in enumerate(treebank):
        n = len(sentence)
        for token in sentence.tokens:
            if token.head > n:
                raise ValueError(
                    f"sentence {i}: head {token.head} out of range for length {n}")


def train_parser(treebank: list[Sentence], dev: list[Sentence], config,
                 pretrained: PretrainedEmbeddings | None = None,
                 rels: Sequence[str] | None = None,
                 tags: Sequence[str] | None = None) -> ParserModel:
    """Adagrad over the arc+label cross-entropy with dev-UAS epoch selection."""
    if not treebank:
        raise ValueError("cannot train a parser on an empty treebank")
    check_trainable(treebank)
    if rels is None:
        rels = sorted({t.deprel for s in treebank for t in s.tokens})
    if tags is None:
        tags = sorted({t.upos for s in treebank for t in s.tokens})
    rng = nc.make_rng(config.seed)
    model = ParserModel(
        rels, tags,
        build_vocab(f for s in treebank for f in s.forms),
        pretrained=pretrained,
        word_dim=config.parser_word_dim, tag_dim=config.tag_dim,
        hidden=config.parser_hidden, layers=config.parser_layers,
        d_arc=config.d_arc, d_rel=config.d_rel, dropout=config.parser_dropout,
        rng=rng,
    )
    params = model.parameters()
    optimizer = nc.AdagradState(config.learning_rate, l2_lambda=config.l2_lambda)
    best_uas, best_params, best_epoch = -1.0, None, None
    for epoch in range(1, config.epochs + 1):
        for i in rng.permutation(len(treebank)):
            nc.zero_grads(params.values())
            loss = model.loss(treebank[int(i)], training=True, rng=rng)
            loss.backward()
            optimizer.apply(params)
        if dev:
            uas = _parser_uas(model, dev, config.decoder)
            if uas > best_uas:
                best_uas, best_epoch = uas, epoch
                best_params = {name: t.data.copy() for name, t in params.items()}
    if best_params is not None:
        for name, t in params.items():
            t.data[...] = best_params[name]
        model.best_epoch, model.dev_uas = best_epoch, best_uas
    else:
        model.best_epoch = config.epochs
    return model
