"""Cross-lingual dependency parsing toolkit.

Train a bi-LSTM-CRF POS tagger and a biaffine-attention dependency
parser on a small target-language treebank, and improve both via
feature-level neural stacking on top of models pre-trained on a larger
source-language treebank.  Includes CoNLL-U I/O, an n-gram language
model for divergence-based corpus selection, and a full evaluation
pipeline (UAS/LAS, jackknifing, cross-fold validation).
"""

from .config import RunConfig, load_config
from .embeddings import PretrainedEmbeddings, load_embeddings
from .evaluation import (
    CrossFoldReport,
    ScoreReport,
    attachment_scores,
    cross_fold_validate,
    inter_annotator_agreement,
    jackknife_tags,
    per_category_scores,
    relative_error_reduction,
    tagging_accuracy,
)
from .langmodel import (
    NgramLM,
    SelectionRecord,
    match_lexicon,
    rank_by_divergence,
    sentence_logprob,
    train_ngram_lm,
)
from .parser import (
    ParseResult,
    ParserModel,
    decode_greedy,
    decode_mst,
    parse,
    score_arcs,
    score_labels,
    train_parser,
)
from .stacking import (
    StackedParser,
    StackedTagger,
    stack_parse_inputs,
    stack_tag_inputs,
    train_stacked_parser,
    train_stacked_tagger,
)
from .tagger import (
    TaggerModel,
    TagResult,
    crf_log_likelihood,
    tag,
    train_tagger,
    viterbi_decode,
)
from .treebank import (
    LabelInventory,
    Sentence,
    Token,
    Violation,
    parse_conllu,
    split_corpus,
    validate,
    write_conllu,
)

__version__ = "0.1.0"
