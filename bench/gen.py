"""Seeded input generators for the benchmark workloads.

Every generator takes a numpy Generator built from the workload seed, so
one seed always gives byte-identical files.  Sizes (sentence lengths,
corpus and lexicon sizes) are fixed by the caller: the seed changes what
the inputs say, never how much work they are, which keeps run-to-run
spread down to machine noise.
"""

from __future__ import annotations

import numpy as np

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"

# Clause templates of a toy language, as (categories, source heads,
# target heads, relations).  Heads are 1-based within the clause, 0 marks
# the clause verb.  The target grammar flips the head direction of "mod",
# a systematic source/target difference for the stacked models to learn.
CLAUSES = [
    (("M", "N", "V"), (2, 3, 0), (3, 1, 0), ("mod", "subj", "root")),
    (("N", "V", "M", "N"), (2, 0, 4, 2), (2, 0, 2, 3), ("subj", "root", "mod", "obj")),
    (("N", "V", "N", "N"), (2, 0, 2, 2), (2, 0, 2, 2), ("subj", "root", "obj", "iobj")),
    (("M", "N", "V", "N", "N"), (2, 3, 0, 3, 4), (3, 1, 0, 3, 4),
     ("mod", "subj", "root", "obj", "nmod")),
]
LEXICON_SIZES = {"M": 120, "N": 300, "V": 80}


def pseudo_words(rng: np.random.Generator, count: int) -> list[str]:
    """`count` distinct pseudo-words of 2-4 consonant-vowel syllables."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        syllables = int(rng.integers(2, 5))
        word = "".join(CONSONANTS[int(rng.integers(len(CONSONANTS)))]
                       + VOWELS[int(rng.integers(len(VOWELS)))]
                       for _ in range(syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def make_lexicon(rng: np.random.Generator) -> dict[str, list[str]]:
    """Disjoint word lists per category."""
    words = pseudo_words(rng, sum(LEXICON_SIZES.values()))
    lexicon: dict[str, list[str]] = {}
    start = 0
    for category, size in LEXICON_SIZES.items():
        lexicon[category] = words[start:start + size]
        start += size
    return lexicon


def _clause_lengths(rng: np.random.Generator, length: int) -> list[int]:
    """Clause sizes (3, 4 or 5) that sum to exactly `length` (>= 3)."""
    sizes = []
    remaining = length
    while remaining:
        options = [s for s in (3, 4, 5) if remaining - s == 0 or remaining - s >= 3]
        size = options[int(rng.integers(len(options)))]
        sizes.append(size)
        remaining -= size
    return sizes


def tree_sentence(rng: np.random.Generator, lexicon: dict[str, list[str]],
                  length: int, target: bool,
                  lead: tuple[int, ...] = ()) -> list[tuple[str, str, int, str]]:
    """One sentence of exactly `length` tokens as (form, upos, head, deprel).

    Clauses are chained under one root: the first clause's verb heads the
    sentence and every later clause verb attaches to it as "conj".  The
    CLAUSES indices in `lead` open the sentence, in that order.
    """
    clauses = [CLAUSES[i] for i in lead]
    remaining = length - sum(len(c[0]) for c in clauses)
    for size in _clause_lengths(rng, remaining):
        shapes = [c for c in CLAUSES if len(c[0]) == size]
        clauses.append(shapes[int(rng.integers(len(shapes)))])
    rows: list[tuple[str, str, int, str]] = []
    root_verb = 0
    for categories, src_heads, tgt_heads, rels in clauses:
        heads = tgt_heads if target else src_heads
        offset = len(rows)
        verb = offset + heads.index(0) + 1
        for category, head, rel in zip(categories, heads, rels):
            words = lexicon[category]
            form = words[int(rng.integers(len(words)))]
            if head:
                rows.append((form, category, offset + head, rel))
            elif root_verb:
                rows.append((form, category, root_verb, "conj"))
            else:
                rows.append((form, category, 0, "root"))
        root_verb = root_verb or verb
    return rows


def conllu(sentences: list[list[tuple[str, str, int, str]]]) -> str:
    blocks = []
    for rows in sentences:
        lines = [f"{i}\t{form}\t_\t{upos}\t_\t_\t{head}\t{rel}\t_\t_"
                 for i, (form, upos, head, rel) in enumerate(rows, start=1)]
        blocks.append("\n".join(lines) + "\n\n")
    return "".join(blocks)


def treebank(rng: np.random.Generator, lexicon, lengths: list[int],
             target: bool) -> str:
    """CoNLL-U text with one sentence per length, in a seeded order.  The
    longest sentence (16 or at least 19 tokens) opens with every clause template,
    so a training set sees every tag and relation."""
    order = [lengths[int(i)] for i in rng.permutation(len(lengths))]
    longest = order.index(max(order))
    lead = tuple(range(len(CLAUSES)))
    return conllu([tree_sentence(rng, lexicon, n, target,
                                 lead if i == longest and (n == 16 or n >= 19) else ())
                   for i, n in enumerate(order)])


def embeddings(rng: np.random.Generator, lexicon, dim: int) -> str:
    """Text embeddings for every lexicon word, `dim` values per line."""
    lines = []
    for words in lexicon.values():
        for word in words:
            values = " ".join(f"{v:.6f}" for v in rng.normal(0.0, 0.5, dim))
            lines.append(f"{word} {values}")
    return "\n".join(lines) + "\n"


def zipf_sentences(rng: np.random.Generator, vocab: list[str],
                   lengths: list[int], exponent: float = 1.1) -> list[list[str]]:
    """Sentences of the given lengths with Zipf-distributed word ranks;
    the first word is capitalised, so matching must ignore case."""
    ranks = np.arange(1, len(vocab) + 1, dtype=np.float64)
    probs = ranks ** -exponent
    probs /= probs.sum()
    draws = rng.choice(len(vocab), size=sum(lengths), p=probs)
    sentences = []
    start = 0
    for n in lengths:
        words = [vocab[int(i)] for i in draws[start:start + n]]
        words[0] = words[0].capitalize()
        sentences.append(words)
        start += n
    return sentences


def lexicon_terms(rng: np.random.Generator, vocab: list[str],
                  candidates: list[list[str]], size: int) -> list[str]:
    """Distinct 1-3 token terms; half are n-grams cut from the candidates
    so that hits occur, half are random word combinations."""
    terms: list[str] = []
    seen: set[str] = set()
    while len(terms) < size:
        width = int(rng.integers(1, 4))
        if len(terms) % 2 == 0:
            sentence = candidates[int(rng.integers(len(candidates)))]
            if len(sentence) < width:
                continue
            start = int(rng.integers(len(sentence) - width + 1))
            words = sentence[start:start + width]
        else:
            words = [vocab[int(rng.integers(len(vocab)))] for _ in range(width)]
        term = " ".join(words).lower()
        if term not in seen:
            seen.add(term)
            terms.append(term)
    return terms
