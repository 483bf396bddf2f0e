"""Feature-level neural stacking.

A target-side tagger/parser consumes internal representations of a
trained base model (emission vectors for the tagger, last-layer
recurrent states plus MLP features for the parser), and joint training
back-propagates into the base feature layers.  The base architecture is
frozen; its weights are trainable.  The stacked parser is a `ParserModel`
built on a base (see `parser`); `StackedParser` keeps its defaults and
the names the benchmark's span tracer looks up.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import numcore as nc
from .embeddings import PretrainedEmbeddings
from .parser import ParserModel, check_trainable, dev_uas
from .tagger import TaggerModel, TagResult, build_tagger, build_vocab, dev_accuracy
from .treebank import Sentence

# Not called here since the stacked models share the base code; kept because
# the benchmark's span tracer wraps these names in this module.
from .parser import arc_label_loss, parse as parse_with  # noqa: F401
from .tagger import crf_log_likelihood, viterbi_decode  # noqa: F401


def _trainable(model, target: dict[str, nc.Tensor]) -> dict[str, nc.Tensor]:
    """The parameters a stacked model trains, under their archive names: its
    target's, the base's feature layers, and the base's input layer when
    train_base_embeddings is set."""
    params = {f"target/{k}": v for k, v in target.items()}
    base = model.base.feature_parameters()
    if model.train_base_embeddings:
        base.update(model.base.input_parameters())
    params.update({f"base/{k}": v for k, v in base.items()})
    return params


class StackedTagger:
    """Target tagger whose per-token input appends the base tagger's
    emission vector before window concatenation."""

    def __init__(self, base: TaggerModel, target: TaggerModel,
                 train_base_embeddings: bool = False):
        if target.extra_input_dim != len(base.tags):
            raise ValueError(
                f"target expects {target.extra_input_dim} stacked features, "
                f"base emits {len(base.tags)}")
        self.base = base
        self.target = target
        self.train_base_embeddings = train_base_embeddings

    @property
    def tags(self) -> tuple[str, ...]:
        return self.target.tags

    def stack_inputs(self, sentences: Sequence[Sentence],
                     rng: np.random.Generator | None = None) -> list[nc.Tensor]:
        """The target's encoded inputs for a batch of sentences, the base's
        emissions computed as one batch."""
        ems = self.base.emissions([self.base.encode(s) for s in sentences])
        return [self.target.encode(s, rng, extra=em) for s, em in zip(sentences, ems)]

    def loss(self, sentence: Sentence, rng: np.random.Generator | None = None) -> nc.Tensor:
        return self.target.crf_loss(self.stack_inputs([sentence], rng)[0], sentence, rng)

    def tag(self, sentence: Sentence) -> TagResult:
        return self.tag_batch([sentence])[0]

    def tag_batch(self, sentences: Sequence[Sentence]) -> list[TagResult]:
        with nc.no_grad():
            return self.target.decode(self.stack_inputs(sentences))

    def trainable_parameters(self) -> dict[str, nc.Tensor]:
        return _trainable(self, self.target.parameters())


def train_stacked_tagger(base: TaggerModel, treebank: list[Sentence],
                         dev: list[Sentence], config,
                         pretrained: PretrainedEmbeddings | None = None) -> StackedTagger:
    """Joint fine-tuning: gradients reach target parameters and the base
    feature layer (base embeddings too when configured)."""
    if not treebank:
        raise ValueError("cannot train a stacked tagger on an empty treebank")
    rng = nc.make_rng(config.seed)
    target = build_tagger(treebank, config, pretrained, rng, extra_input_dim=len(base.tags))
    stacked = StackedTagger(base, target, config.train_base_embeddings)
    target.best_epoch, target.dev_accuracy = nc.fit(
        stacked.trainable_parameters(), stacked.loss, treebank, dev,
        lambda gold: dev_accuracy(stacked, gold), config, rng)
    return stacked


class StackedParser(ParserModel):
    """A `ParserModel` on a trained base parser, with the stacked defaults
    (one 900-unit bi-LSTM layer); `d_arc` and `d_rel` are the base's."""

    def __init__(self, base: ParserModel, rels: Sequence[str], tags: Sequence[str],
                 word_vocab: dict[str, int], *,
                 pretrained: PretrainedEmbeddings | None = None,
                 word_dim: int = 100, tag_dim: int = 100, hidden: int = 900,
                 layers: int = 1, dropout: float = 0.33,
                 train_base_embeddings: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__(rels, tags, word_vocab, pretrained=pretrained, word_dim=word_dim,
                         tag_dim=tag_dim, hidden=hidden, layers=layers, dropout=dropout,
                         base=base, train_base_embeddings=train_base_embeddings, rng=rng)

    # Bound in this class's own namespace, where the benchmark's span tracer
    # looks them up.
    forward_full = ParserModel.forward_full
    label_scores = ParserModel.label_scores

    def trainable_parameters(self) -> dict[str, nc.Tensor]:
        return _trainable(self, self.parameters())


def train_stacked_parser(base: ParserModel, treebank: list[Sentence],
                         dev: list[Sentence], config,
                         pretrained: PretrainedEmbeddings | None = None) -> StackedParser:
    """Joint fine-tuning of the stacked parser; dev-UAS epoch selection."""
    if not treebank:
        raise ValueError("cannot train a stacked parser on an empty treebank")
    check_trainable(treebank)
    rng = nc.make_rng(config.seed)
    stacked = StackedParser(
        base, base.rels, sorted({t.upos for s in treebank for t in s.tokens}),
        build_vocab(f for s in treebank for f in s.forms),
        pretrained=pretrained,
        word_dim=config.parser_word_dim, tag_dim=config.tag_dim,
        hidden=config.stack_hidden, layers=config.stack_layers,
        dropout=config.parser_dropout,
        train_base_embeddings=config.train_base_embeddings, rng=rng,
    )
    stacked.best_epoch, stacked.dev_uas = nc.fit(
        stacked.trainable_parameters(), stacked.loss, treebank, dev,
        lambda gold: dev_uas(stacked, gold, config.decoder), config, rng)
    return stacked
