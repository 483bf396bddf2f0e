"""Feature-level neural stacking.

A target-side tagger/parser consumes internal representations of a
trained base model (emission vectors for the tagger, last-layer
recurrent states plus MLP features for the parser), and joint training
back-propagates into the base feature layers.  The base architecture is
frozen; its weights are trainable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import numcore as nc
from .embeddings import PretrainedEmbeddings
from .parser import ParserForward, ParserModel, build_layers, check_trainable, dev_uas
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

    def stack_inputs(self, sentence: Sentence, rng: np.random.Generator | None = None) -> nc.Tensor:
        em = self.base.emissions(self.base.encode(sentence))
        return self.target.encode(sentence, rng, extra=em)

    def loss(self, sentence: Sentence, rng: np.random.Generator | None = None) -> nc.Tensor:
        return self.target.crf_loss(self.stack_inputs(sentence, rng), sentence, rng)

    def tag(self, sentence: Sentence) -> TagResult:
        with nc.no_grad():
            return self.target.decode(self.stack_inputs(sentence))

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
    """Target parser stacked on a trained base parser: a base parser's body
    whose per-position input appends the base's last-layer forward/backward
    recurrent states, and whose MLP outputs are added position-wise to the
    base MLP outputs.  Its own `parameters` are the target's; the target
    biaffine tensors start as copies of the base tensors.
    """

    def __init__(self, base: ParserModel, rels: Sequence[str], tags: Sequence[str],
                 word_vocab: dict[str, int], *,
                 pretrained: PretrainedEmbeddings | None = None,
                 word_dim: int = 100, tag_dim: int = 100, hidden: int = 900,
                 layers: int = 1, dropout: float = 0.33,
                 train_base_embeddings: bool = False,
                 rng: np.random.Generator | None = None):
        if len(rels) != len(base.rels):
            raise ValueError("target label inventory size must match the base "
                             "(biaffine tensor copy requires equal shapes)")
        self.base = base
        self.train_base_embeddings = train_base_embeddings
        # Target MLP output dims are forced to the base dims so feature
        # addition is well-typed.
        build_layers(self, rels, tags, word_vocab, pretrained, word_dim, tag_dim, hidden,
                     layers, base.d_arc, base.d_rel, dropout,
                     extra_input_dim=2 * base.hidden, rng=rng)
        # Copied, not drawn: a draw here would shift every later use of rng.
        self.u_arc = nc.Tensor(base.u_arc.data.copy(), requires_grad=True)
        self.u_rel = nc.Tensor(base.u_rel.data.copy(), requires_grad=True)

    # Bound in this class's own namespace, where the benchmark's span tracer
    # looks it up.
    label_scores = ParserModel.label_scores

    def trainable_parameters(self) -> dict[str, nc.Tensor]:
        return _trainable(self, self.parameters())

    def forward_full(self, forms: Sequence[str], upos_tags: Sequence[str],
                     rng: np.random.Generator | None = None) -> ParserForward:
        """The base forward without dropout, then `ParserModel.forward_full`'s body."""
        base_fw = self.base.forward_full(forms, upos_tags)
        return self._forward(forms, upos_tags, rng, base_fw)


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
