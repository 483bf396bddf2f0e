"""Pretrained word-embedding files: one token per line followed by
space-separated decimal floats; the dimension is inferred from the first
line."""

from __future__ import annotations

import numpy as np


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
        index = self.vocab.get(token)
        if index is None:
            index = self.vocab.get(token.lower())
        if index is None:
            return np.zeros(self.dim)
        return self.matrix[index]


def load_embeddings(path: str) -> PretrainedEmbeddings:
    vocab: dict[str, int] = {}
    rows: list[list[float]] = []
    line_nos: list[int] = []
    dim = None
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise ValueError(f"{path}:{line_no}: no embedding values on first line")
            if len(values) != dim:
                raise ValueError(f"{path}:{line_no}: expected {dim} values, got {len(values)}")
            if token in vocab:
                continue
            vocab[token] = len(rows)
            rows.append([float(v) for v in values])
            line_nos.append(line_no)
    if dim is None:
        return PretrainedEmbeddings.empty()
    matrix = np.array(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{line_nos[bad[0]]}: non-finite embedding value")
    return PretrainedEmbeddings(vocab, matrix)


def write_embeddings(path: str, vocab: dict[str, int], matrix: np.ndarray) -> None:
    ordered = sorted(vocab.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8") as f:
        for token, index in ordered:
            values = " ".join(repr(float(v)) for v in matrix[index])
            f.write(f"{token} {values}\n")
