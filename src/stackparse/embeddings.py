"""Pretrained word-embedding files: one token per line followed by
space-separated decimal floats; the dimension is inferred from the first
line."""

from __future__ import annotations

import math

import numpy as np

from .config import read_text


def find(vocab: dict[str, int], form: str) -> int | None:
    """The row of `form`, else of its lowercase form, else None."""
    index = vocab.get(form)
    return vocab.get(form.lower()) if index is None else index


class PretrainedEmbeddings:
    """Frozen lookup table. Unknown words fall back to lowercase, then zeros."""

    def __init__(self, vocab: dict[str, int], matrix: np.ndarray):
        self.vocab = vocab
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.dim = 0 if self.matrix.size == 0 else self.matrix.shape[1]

    @classmethod
    def empty(cls) -> "PretrainedEmbeddings":
        return cls({}, np.zeros((0, 0)))

    def lookup(self, token: str) -> np.ndarray:
        index = find(self.vocab, token)
        return np.zeros(self.dim) if index is None else self.matrix[index]


def load_embeddings(path: str) -> PretrainedEmbeddings:
    """Every line is parsed and checked, a repeated token's included; the
    first line of a token is the one kept.  Errors name `path:line`, and
    text that is not UTF-8 names `path`."""
    vocab: dict[str, int] = {}
    rows: list[list[float]] = []
    dim = None
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.removesuffix("\r")  # a CRLF file
        if not line:
            continue
        token, *values = line.split(" ")
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise ValueError(f"{path}:{line_no}: no embedding values on first line")
        if len(values) != dim:
            raise ValueError(f"{path}:{line_no}: expected {dim} values, got {len(values)}")
        try:
            row = [float(v) for v in values]
        except ValueError as err:
            raise ValueError(f"{path}:{line_no}: {err}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{line_no}: non-finite embedding value")
        if token not in vocab:
            vocab[token] = len(rows)
            rows.append(row)
    if dim is None:
        return PretrainedEmbeddings.empty()
    return PretrainedEmbeddings(vocab, np.array(rows, dtype=np.float64))

