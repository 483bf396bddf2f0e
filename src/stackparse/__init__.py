"""Cross-lingual dependency parsing toolkit.

Train a bi-LSTM-CRF POS tagger and a biaffine-attention dependency
parser on a small target-language treebank, and improve both via
feature-level neural stacking on top of models pre-trained on a larger
source-language treebank.  Includes CoNLL-U I/O, an n-gram language
model for divergence-based corpus selection, and a full evaluation
pipeline (UAS/LAS, jackknifing, cross-fold validation).
"""
