"""Bi-LSTM-CRF POS tagger.

Input layer: a sentence of n tokens is one (n, D) matrix whose rows are
a frozen pretrained word embedding, a trainable word embedding and an
attention-weighted average of character embeddings.  The +-w context
window is 2w+1 row slices of that matrix, padded with w copies of a
learned vector at each end, joined side by side.  Feature layer:
peephole bi-LSTM.  Output layer: linear emission projection plus a CRF
with start/stop states, trained by exact sequence-level log-likelihood
and decoded with Viterbi.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import numcore as nc
from .embeddings import PretrainedEmbeddings, find
from .evaluation import tagging_accuracy
from .numcore import crf_log_likelihood
from .treebank import Sentence

UNK = "<unk>"


class TagResult(NamedTuple):
    tags: tuple[str, ...]
    emissions: np.ndarray  # (n, |tags|)


def build_vocab(items: Iterable[str]) -> dict[str, int]:
    vocab: dict[str, int] = {}
    for item in items:
        if item not in vocab:
            vocab[item] = len(vocab)
    return vocab


class TaggerModel:
    """Parameters and forward passes; immutable once trained."""

    def __init__(self, tags: Sequence[str], word_vocab: dict[str, int],
                 char_vocab: dict[str, int], *,
                 pretrained: PretrainedEmbeddings | None = None,
                 word_dim: int = 50, char_dim: int = 30, att_dim: int = 30,
                 hidden: int = 300, layers: int = 1, window: int = 1,
                 dropout: float = 0.15, extra_input_dim: int = 0,
                 rng: np.random.Generator | None = None):
        if window < 0:
            raise ValueError("window radius must be >= 0")
        self.tags = tuple(tags)
        self.tag_index = {t: i for i, t in enumerate(self.tags)}
        self.word_vocab = dict(word_vocab)
        self.char_vocab = dict(char_vocab)
        self.pretrained = pretrained or PretrainedEmbeddings.empty()
        self.word_dim = word_dim
        self.char_dim = char_dim
        self.att_dim = att_dim
        self.hidden = hidden
        self.layers = layers
        self.window = window
        self.dropout = dropout
        self.extra_input_dim = extra_input_dim
        self.best_epoch: int | None = None
        self.dev_accuracy: float | None = None

        k = len(self.tags)
        self.per_token_dim = self.pretrained.dim + word_dim + char_dim + extra_input_dim
        input_dim = (2 * window + 1) * self.per_token_dim

        # Trainable word table starts at zero next to the frozen pretrained part.
        self.word_table = nc.parameter(nc.zeros(len(word_vocab) + 1, word_dim))
        self.char_table = nc.parameter(nc.glorot_uniform(rng, len(char_vocab) + 1, char_dim))
        self.att_proj = nc.parameter(nc.glorot_uniform(rng, att_dim, char_dim))
        self.att_bias = nc.parameter(nc.zeros(att_dim))
        self.att_query = nc.parameter(nc.glorot_uniform(rng, att_dim, 1).reshape(att_dim))
        self.pad_vec = nc.parameter(nc.zeros(self.per_token_dim))
        self.lstm_layers: list[tuple[nc.LstmCell, nc.LstmCell]] = []
        for layer in range(layers):
            dim = input_dim if layer == 0 else 2 * hidden
            self.lstm_layers.append(nc.lstm_layer(nc.PEEPHOLE, dim, hidden, rng))
        self.emission_w = nc.parameter(nc.glorot_uniform(rng, k, 2 * hidden))
        self.emission_b = nc.parameter(nc.zeros(k))
        self.transitions = nc.parameter(nc.zeros(k + 2, k + 2))

    # -- parameter bookkeeping ------------------------------------------------

    def input_parameters(self) -> dict[str, nc.Tensor]:
        return {
            "word_table": self.word_table,
            "char_table": self.char_table,
            "att_proj": self.att_proj,
            "att_bias": self.att_bias,
            "att_query": self.att_query,
            "pad_vec": self.pad_vec,
        }

    def feature_parameters(self) -> dict[str, nc.Tensor]:
        params: dict[str, nc.Tensor] = {}
        for i, (fwd, bwd) in enumerate(self.lstm_layers):
            params.update(fwd.parameters(f"lstm{i}/fwd"))
            params.update(bwd.parameters(f"lstm{i}/bwd"))
        params["emission_w"] = self.emission_w
        params["emission_b"] = self.emission_b
        return params

    def parameters(self) -> dict[str, nc.Tensor]:
        params = self.input_parameters()
        params.update(self.feature_parameters())
        params["transitions"] = self.transitions
        return params

    # -- forward pieces -------------------------------------------------------

    def word_index(self, form: str) -> int:
        index = find(self.word_vocab, form)
        return len(self.word_vocab) if index is None else index

    def char_attention(self, forms: Sequence[str]) -> nc.Tensor:
        """(n, char_dim): row i is the attention-weighted average of the
        embeddings of word i's characters, in one pass over all of them."""
        unk_char = len(self.char_vocab)
        embs = self.char_table[[self.char_vocab.get(ch, unk_char) for ch in "".join(forms)]]
        hidden = nc.tanh(nc.linear(embs, self.att_proj, self.att_bias))
        scores = nc.matmul(hidden, self.att_query)
        owner = np.repeat(np.arange(len(forms)), [len(f) for f in forms])
        weights = nc.softmax_rows_masked(scores, owner == np.arange(len(forms))[:, None])
        return nc.matmul(weights, embs)

    def encode(self, sentence: Sentence, rng: np.random.Generator | None = None,
               extra: nc.Tensor | None = None) -> nc.Tensor:
        """(n, (2w+1) * per_token_dim) windowed inputs, with dropout masks
        drawn from `rng` when one is given; a stacked tagger passes its
        base's (n, k) emission matrix as `extra`."""
        forms = sentence.forms
        parts = [self.word_table[[self.word_index(f) for f in forms]],
                 self.char_attention(forms)]
        if self.pretrained.dim:
            parts.insert(0, nc.Tensor([self.pretrained.lookup(f) for f in forms]))
        if extra is not None:
            parts.append(extra)
        elif self.extra_input_dim:
            raise ValueError("model expects stacked extra features")
        x = nc.dropout(nc.concat(parts, axis=1), self.dropout, rng)
        pad = [self.pad_vec[None]] * self.window
        padded = nc.concat(pad + [x] + pad)
        n = len(forms)
        return nc.concat([padded[k:k + n] for k in range(2 * self.window + 1)], axis=1)

    def emissions(self, inputs: nc.Tensor,
                  rng: np.random.Generator | None = None) -> nc.Tensor:
        hidden_mat = nc.dropout(nc.bilstm_encode(self.lstm_layers, inputs), self.dropout, rng)
        return nc.linear(hidden_mat, self.emission_w, self.emission_b)

    def gold_indices(self, sentence: Sentence) -> list[int]:
        indices = []
        for token in sentence.tokens:
            if token.upos not in self.tag_index:
                raise ValueError(f"gold tag {token.upos!r} not in the tag inventory")
            indices.append(self.tag_index[token.upos])
        return indices

    def crf_loss(self, inputs: nc.Tensor, sentence: Sentence,
                 rng: np.random.Generator | None = None) -> nc.Tensor:
        em = self.emissions(inputs, rng)
        return crf_log_likelihood(em, self.transitions, self.gold_indices(sentence))

    def decode(self, inputs: nc.Tensor) -> TagResult:
        """Viterbi tags and emissions of encoded inputs; callers hold no_grad."""
        em = self.emissions(inputs)
        path = viterbi_decode(em.data, self.transitions.data)
        return TagResult(tuple(self.tags[i] for i in path), em.data.copy())

    def loss(self, sentence: Sentence, rng: np.random.Generator | None = None) -> nc.Tensor:
        return self.crf_loss(self.encode(sentence, rng), sentence, rng)

    def tag(self, sentence: Sentence) -> TagResult:
        """`tag(self, sentence)`, so that a base and a stacked tagger answer alike."""
        return tag(self, sentence)


# -- CRF ----------------------------------------------------------------------
# The loss is numcore's one-op `crf_log_likelihood`, imported above by name:
# `crf_loss` calls it through this module's globals, where the benchmark's
# span tracer wraps it.


def viterbi_decode(emissions: np.ndarray, transitions: np.ndarray) -> list[int]:
    """Exact maximum-scoring path; ties break toward the lowest tag index."""
    emissions = np.asarray(emissions)
    transitions = np.asarray(transitions)
    n, k = emissions.shape
    start, stop = k, k + 1
    delta = transitions[start, :k] + emissions[0]
    backpointers = []
    for t in range(1, n):
        moved = delta[:, None] + transitions[:k, :k]
        backpointers.append(moved.argmax(axis=0))
        delta = moved.max(axis=0) + emissions[t]
    final = delta + transitions[:k, stop]
    best = int(final.argmax())
    path = [best]
    for pointers in reversed(backpointers):
        best = int(pointers[best])
        path.append(best)
    path.reverse()
    return path


# -- training and inference -----------------------------------------------------


def tag(model: TaggerModel, sentence: Sentence) -> TagResult:
    """Viterbi tags plus the emission vectors; a stacked tagger reads its
    base's emissions through `TaggerModel.emissions`, not through this."""
    with nc.no_grad():
        return model.decode(model.encode(sentence))


def build_tagger(treebank: list[Sentence], config, pretrained: PretrainedEmbeddings | None,
                 rng: np.random.Generator, *, extra_input_dim: int) -> TaggerModel:
    """A tagger over the treebank's tags, words and characters, sized by `config`,
    with `extra_input_dim` stacked features per token (0 for a base tagger)."""
    return TaggerModel(
        sorted({t.upos for s in treebank for t in s.tokens}),
        build_vocab(f for s in treebank for f in s.forms),
        build_vocab(ch for s in treebank for f in s.forms for ch in f),
        pretrained=pretrained,
        word_dim=config.word_dim, char_dim=config.char_dim, att_dim=config.att_dim,
        hidden=config.hidden, layers=config.layers, window=config.window,
        dropout=config.dropout, extra_input_dim=extra_input_dim, rng=rng,
    )


def dev_accuracy(model, gold: list[Sentence]) -> float:
    """Tag accuracy of a base or stacked tagger on a dev set, for epoch selection."""
    return tagging_accuracy(gold, [s.with_upos(model.tag(s).tags) for s in gold])


def train_tagger(treebank: list[Sentence], dev: list[Sentence], config,
                 pretrained: PretrainedEmbeddings | None = None) -> TaggerModel:
    """Epoch-wise Adagrad over the CRF loss with dev-based epoch selection.

    Deterministic for a fixed config.seed.  The returned model carries
    best_epoch and dev_accuracy.
    """
    if not treebank:
        raise ValueError("cannot train a tagger on an empty treebank")
    rng = nc.make_rng(config.seed)
    model = build_tagger(treebank, config, pretrained, rng, extra_input_dim=0)
    model.best_epoch, model.dev_accuracy = nc.fit(
        model.parameters(), model.loss, treebank, dev,
        lambda gold: dev_accuracy(model, gold), config, rng)
    return model
