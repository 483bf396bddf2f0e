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
from .evaluation import tagging_accuracy
from .parser import ParserForward, ParserModel, build_layers, check_trainable, dev_uas
from .tagger import TaggerModel, TagResult, build_vocab
from .treebank import Sentence

# Not called here since the stacked models share the base code; kept because
# the benchmark's span tracer wraps these names in this module.
from .parser import arc_label_loss, parse as parse_with  # noqa: F401
from .tagger import crf_log_likelihood, viterbi_decode  # noqa: F401

TRAINABLE_SCOPES = ("default", "all", "target", "crf")


def _scoped(model, scope: str, target: dict[str, nc.Tensor],
            crf_only: dict[str, nc.Tensor]) -> dict[str, nc.Tensor]:
    """The parameters a stacked model trains in `scope`, given the
    target's parameters and its output-layer subset, under their archive names."""
    if scope not in TRAINABLE_SCOPES:
        raise ValueError(f"unknown trainable scope {scope!r}")
    params = {f"target/{k}": v for k, v in (crf_only if scope == "crf" else target).items()}
    if scope in ("default", "all"):
        params.update({f"base/{k}": v for k, v in model.base.feature_parameters().items()})
        if scope == "all" or model.train_base_embeddings:
            params.update({f"base/{k}": v for k, v in model.base.input_parameters().items()})
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

    def stack_inputs(self, sentence: Sentence, training: bool = False,
                     rng: np.random.Generator | None = None) -> list[nc.Tensor]:
        em, _ = self.base.emissions(self.base.encode(sentence))
        extra = [em[t] for t in range(len(sentence))]
        return self.target.encode(sentence, training, rng, extra=extra)

    def loss(self, sentence: Sentence, training: bool = False,
             rng: np.random.Generator | None = None) -> nc.Tensor:
        inputs = self.stack_inputs(sentence, training, rng)
        return self.target.crf_loss(inputs, sentence, training, rng)

    def tag(self, sentence: Sentence) -> TagResult:
        with nc.no_grad():
            return self.target.decode(self.stack_inputs(sentence))

    def trainable_parameters(self, scope: str = "default") -> dict[str, nc.Tensor]:
        return _scoped(self, scope, self.target.parameters(),
                       {"transitions": self.target.transitions})

    def all_parameters(self) -> dict[str, nc.Tensor]:
        params = {f"base/{k}": v for k, v in self.base.parameters().items()}
        params.update({f"target/{k}": v for k, v in self.target.parameters().items()})
        return params


def stack_tag_inputs(stacked: StackedTagger, sentence: Sentence) -> list[nc.Tensor]:
    return stacked.stack_inputs(sentence)


def train_stacked_tagger(base: TaggerModel, treebank: list[Sentence],
                         dev: list[Sentence], config,
                         pretrained: PretrainedEmbeddings | None = None,
                         tags: Sequence[str] | None = None,
                         scope: str = "default") -> StackedTagger:
    """Joint fine-tuning: gradients reach target parameters and the base
    feature layer (base embeddings too when configured)."""
    if not treebank:
        raise ValueError("cannot train a stacked tagger on an empty treebank")
    if tags is None:
        tags = sorted({t.upos for s in treebank for t in s.tokens})
    rng = nc.make_rng(config.seed)
    target = TaggerModel(
        tags,
        build_vocab(f for s in treebank for f in s.forms),
        build_vocab(ch for s in treebank for f in s.forms for ch in f),
        pretrained=pretrained,
        word_dim=config.word_dim, char_dim=config.char_dim, att_dim=config.att_dim,
        hidden=config.hidden, layers=config.layers, window=config.window,
        dropout=config.dropout, extra_input_dim=len(base.tags), rng=rng,
    )
    stacked = StackedTagger(base, target, config.train_base_embeddings)
    target.best_epoch, target.dev_accuracy = nc.fit(
        stacked.trainable_parameters(scope), lambda s: stacked.loss(s, training=True, rng=rng),
        treebank, dev,
        lambda gold: tagging_accuracy(gold, [s.with_upos(stacked.tag(s).tags) for s in gold]),
        config, rng)
    return stacked


class StackedParser:
    """Target parser stacked on a trained base parser.

    Per-position input: pretrained + trainable word + tag embeddings plus
    the base's last-layer forward/backward recurrent states.  Target MLP
    outputs are added position-wise to the base MLP outputs, and the
    target biaffine tensors start as copies of the base tensors.
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

    # The target half is a base parser's body.  label_scores is bound in this
    # class's own namespace, where the benchmark's span tracer looks it up.
    word_index = ParserModel.word_index
    tag_index = ParserModel.tag_index
    input_vectors = ParserModel.input_vectors
    _mlp_apply = ParserModel._mlp_apply
    _forward = ParserModel._forward
    label_scores = ParserModel.label_scores
    loss = ParserModel.loss
    input_parameters = ParserModel.input_parameters
    feature_parameters = ParserModel.feature_parameters
    scoring_parameters = ParserModel.scoring_parameters
    target_parameters = ParserModel.parameters

    def trainable_parameters(self, scope: str = "default") -> dict[str, nc.Tensor]:
        return _scoped(self, scope, self.target_parameters(), self.scoring_parameters())

    def all_parameters(self) -> dict[str, nc.Tensor]:
        params = {f"base/{k}": v for k, v in self.base.parameters().items()}
        params.update({f"target/{k}": v for k, v in self.target_parameters().items()})
        return params

    def forward_full(self, forms: Sequence[str], upos_tags: Sequence[str],
                     training: bool = False,
                     rng: np.random.Generator | None = None) -> ParserForward:
        base_fw = self.base.forward_full(forms, upos_tags)
        return self._forward(forms, upos_tags, training, rng, base_fw)


def stack_parse_inputs(stacked: StackedParser, sentence: Sentence,
                       tags: Sequence[str] | None = None) -> list[nc.Tensor]:
    tags = tuple(tags) if tags is not None else sentence.upos
    with nc.no_grad():
        base_fw = stacked.base.forward_full(sentence.forms, tags)
        return stacked.input_vectors(sentence.forms, tags, base=base_fw)


def train_stacked_parser(base: ParserModel, treebank: list[Sentence],
                         dev: list[Sentence], config,
                         pretrained: PretrainedEmbeddings | None = None,
                         rels: Sequence[str] | None = None,
                         tags: Sequence[str] | None = None,
                         scope: str = "default") -> StackedParser:
    """Joint fine-tuning of the stacked parser; dev-UAS epoch selection."""
    if not treebank:
        raise ValueError("cannot train a stacked parser on an empty treebank")
    check_trainable(treebank)
    if rels is None:
        rels = tuple(base.rels)
    if tags is None:
        tags = sorted({t.upos for s in treebank for t in s.tokens})
    rng = nc.make_rng(config.seed)
    stacked = StackedParser(
        base, rels, tags,
        build_vocab(f for s in treebank for f in s.forms),
        pretrained=pretrained,
        word_dim=config.parser_word_dim, tag_dim=config.tag_dim,
        hidden=config.stack_hidden, layers=config.stack_layers,
        dropout=config.parser_dropout,
        train_base_embeddings=config.train_base_embeddings, rng=rng,
    )
    stacked.best_epoch, stacked.dev_uas = nc.fit(
        stacked.trainable_parameters(scope), lambda s: stacked.loss(s, training=True, rng=rng),
        treebank, dev, lambda gold: dev_uas(stacked, gold, config.decoder), config, rng)
    return stacked
