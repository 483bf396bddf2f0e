"""CoNLL-U data model, serialization, structural validation, and the
splitmix64 shuffle behind fold assignment.

Only the basic-token layer is modeled: multiword-token range lines
("3-4") and empty-node lines ("5.1") are skipped on read.  Sentence-level
grammar-category tags ride in a `# categories = a,b` comment because
CoNLL-U has no standard slot for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

# The 17 universal POS tags (v1 inventory, CONJ rather than CCONJ).
UPOS_TAGS = (
    "ADJ", "ADP", "ADV", "AUX", "CONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
)

# Dependency labels attested in the web-domain English treebank plus root.
UD_ENGLISH_DEPRELS = (
    "acl", "acl:relcl", "advcl", "advmod", "amod", "appos", "aux",
    "auxpass", "case", "cc", "ccomp", "compound", "compound:prt", "conj",
    "cop", "csubj", "det", "det:predet", "discourse", "dislocated",
    "dobj", "expl", "iobj", "list", "mark", "mwe", "name", "neg", "nmod",
    "nmod:npmod", "nmod:poss", "nmod:tmod", "nsubj", "nsubjpass",
    "nummod", "parataxis", "punct", "remnant", "root", "vocative",
    "xcomp",
)


class ConlluError(ValueError):
    """Malformed CoNLL-U input; carries the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Token:
    """One syntactic word: 1-based index, surface form, POS tag, head, label.

    head is 0 for the artificial root.  Head range relative to sentence
    length is the validator's job, so out-of-range heads are constructible.
    """

    index: int
    form: str
    upos: str
    head: int
    deprel: str

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"token index must be >= 1, got {self.index}")
        if self.head < 0:
            raise ValueError(f"head must be >= 0, got {self.head}")
        if self.head == self.index:
            raise ValueError(f"token {self.index} may not head itself")
        if not self.form:
            raise ValueError("token form must be non-empty")


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    categories: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "categories", frozenset(self.categories))

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def forms(self) -> tuple[str, ...]:
        return tuple(t.form for t in self.tokens)

    @property
    def upos(self) -> tuple[str, ...]:
        return tuple(t.upos for t in self.tokens)

    @property
    def heads(self) -> tuple[int, ...]:
        return tuple(t.head for t in self.tokens)

    @property
    def deprels(self) -> tuple[str, ...]:
        return tuple(t.deprel for t in self.tokens)

    def with_upos(self, tags: Iterable[str]) -> "Sentence":
        """A copy tagged with `tags`."""
        tags = tuple(tags)
        if len(tags) != len(self.tokens):
            raise ValueError("tag count does not match sentence length")
        tokens = tuple(
            Token(t.index, t.form, tag, t.head, t.deprel)
            for t, tag in zip(self.tokens, tags)
        )
        return Sentence(tokens, self.categories)

    def with_tree(self, heads: Iterable[int], deprels: Iterable[str]) -> "Sentence":
        heads, deprels = tuple(heads), tuple(deprels)
        if len(heads) != len(self.tokens) or len(deprels) != len(self.tokens):
            raise ValueError("tree length does not match sentence length")
        tokens = tuple(
            Token(t.index, t.form, t.upos, h, d)
            for t, h, d in zip(self.tokens, heads, deprels)
        )
        return Sentence(tokens, self.categories)


@dataclass(frozen=True)
class LabelInventory:
    pos_tags: frozenset[str]
    deprels: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "pos_tags", frozenset(self.pos_tags))
        object.__setattr__(self, "deprels", frozenset(self.deprels))
        if not self.deprels:
            raise ValueError("deprel inventory must be non-empty")

    @classmethod
    def ud_english(cls) -> "LabelInventory":
        inv = cls(frozenset(UPOS_TAGS), frozenset(UD_ENGLISH_DEPRELS))
        assert len(inv.pos_tags) == 17
        return inv

    @classmethod
    def from_sentences(cls, sentences: Iterable[Sentence]) -> "LabelInventory":
        tags, rels = set(), set()
        for sentence in sentences:
            for token in sentence.tokens:
                tags.add(token.upos)
                rels.add(token.deprel)
        return cls(frozenset(tags), frozenset(rels))


class Violation(NamedTuple):
    kind: str  # unknown-pos | unknown-deprel | cycle | unreachable | multi-root | head-out-of-range
    token_index: int
    message: str


_CATEGORY_PREFIX = "# categories ="


def parse_conllu(text: str) -> list[Sentence]:
    """Parse CoNLL-U text into sentences.

    Ten tab-separated columns per token line; comments start with '#';
    blank lines separate sentences.  Range and empty-node lines are
    skipped.  Errors name the offending line.
    """
    sentences: list[Sentence] = []
    rows: list[tuple[int, list[str]]] = []  # (line number, columns)
    categories: set[str] = set()

    def flush():
        nonlocal rows, categories
        if not rows:
            categories = set()
            return
        tokens = []
        expected = 1
        for line_no, cols in rows:
            try:
                index = int(cols[0])
            except ValueError:
                raise ConlluError(line_no, f"malformed token ID {cols[0]!r}") from None
            if index != expected:
                raise ConlluError(line_no, f"token ID {index} out of sequence (expected {expected})")
            expected += 1
            try:
                head = int(cols[6])
            except ValueError:
                raise ConlluError(line_no, f"malformed HEAD {cols[6]!r}") from None
            try:
                tokens.append(Token(index, cols[1], cols[3], head, cols[7]))
            except ValueError as exc:
                raise ConlluError(line_no, str(exc)) from None
        n = len(tokens)
        for (line_no, _), token in zip(rows, tokens):
            if token.head > n:
                raise ConlluError(line_no, f"head {token.head} out of range for {n}-token sentence")
        sentences.append(Sentence(tuple(tokens), frozenset(categories)))
        rows = []
        categories = set()

    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            if line.startswith(_CATEGORY_PREFIX):
                raw = line[len(_CATEGORY_PREFIX):]
                categories.update(c.strip() for c in raw.split(",") if c.strip())
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluError(line_no, f"expected 10 columns, got {len(cols)}")
        if "-" in cols[0] or "." in cols[0]:
            continue  # multiword-token range or empty node: basic layer only
        rows.append((line_no, cols))
    flush()
    return sentences


def write_conllu(sentences: Iterable[Sentence]) -> str:
    """Serialize sentences; parse(write(s)) reproduces the stored fields."""
    blocks = []
    for sentence in sentences:
        lines = []
        if sentence.categories:
            lines.append(f"{_CATEGORY_PREFIX} {','.join(sorted(sentence.categories))}")
        for t in sentence.tokens:
            lines.append("\t".join([
                str(t.index), t.form, "_", t.upos, "_", "_",
                str(t.head), t.deprel, "_", "_",
            ]))
        blocks.append("\n".join(lines) + "\n\n")
    return "".join(blocks)


def _find_cycles(heads: dict[int, int]) -> list[list[int]]:
    """Cycles in the head graph. heads maps token index -> head index."""
    cycles: list[list[int]] = []
    done: set[int] = set()
    for start in heads:
        if start in done:
            continue
        path = []
        node = start
        on_path: dict[int, int] = {}
        while node in heads and node not in done and node not in on_path:
            on_path[node] = len(path)
            path.append(node)
            node = heads[node]
        if node in on_path:
            cycles.append(path[on_path[node]:])
        done.update(path)
    return cycles


def validate(sentence: Sentence, inventory: LabelInventory) -> list[Violation]:
    """Structural and label checks.

    Returns one violation per problem; empty iff the head graph is a tree
    rooted at 0 and every label is in the inventory.  Multi-root is a
    warning kind (training code treats the first root as canonical).
    """
    violations: list[Violation] = []
    n = len(sentence.tokens)
    for token in sentence.tokens:
        if token.upos not in inventory.pos_tags:
            violations.append(Violation("unknown-pos", token.index,
                                        f"POS tag {token.upos!r} not in inventory"))
        if token.deprel not in inventory.deprels:
            violations.append(Violation("unknown-deprel", token.index,
                                        f"dependency label {token.deprel!r} not in inventory"))
        if token.head > n:
            violations.append(Violation("head-out-of-range", token.index,
                                        f"head {token.head} exceeds sentence length {n}"))

    in_range = {t.index: t.head for t in sentence.tokens if t.head <= n}
    roots = sorted(i for i, h in in_range.items() if h == 0)
    if len(roots) > 1:
        violations.append(Violation("multi-root", roots[1],
                                    "multiple root attachments: tokens "
                                    + ", ".join(str(r) for r in roots)))

    heads = {i: h for i, h in in_range.items() if h != 0}
    cycles = _find_cycles(heads)
    cycle_members: set[int] = set()
    for cycle in cycles:
        cycle_members.update(cycle)
        first = min(cycle)
        violations.append(Violation("cycle", first,
                                    "cycle through tokens "
                                    + ", ".join(str(i) for i in sorted(cycle))))

    # One walk down from the root over in-range head arcs; a cycle is never
    # reached, and its members were reported above.
    children: dict[int, list[int]] = {}
    for i, h in in_range.items():
        children.setdefault(h, []).append(i)
    reached: set[int] = set()
    stack = [0]
    while stack:
        below = children.get(stack.pop(), [])
        reached.update(below)
        stack.extend(below)
    for token in sentence.tokens:
        if token.index not in cycle_members and token.index not in reached:
            violations.append(Violation("unreachable", token.index,
                                        f"token {token.index} cannot reach the root"))
    return violations


def is_tree(heads: Iterable[int]) -> bool:
    """True iff 1-based tokens with these heads form a tree rooted at 0."""
    heads = tuple(heads)
    n = len(heads)
    if any(h < 0 or h > n for h in heads) or heads.count(0) != 1:
        return False
    return not _find_cycles({i: h for i, h in enumerate(heads, start=1) if h != 0})


# -- the fold shuffle ---------------------------------------------------------

_MASK64 = (1 << 64) - 1


def shuffled_indices(n: int, seed: int) -> list[int]:
    """Fisher-Yates order driven by splitmix64: pure integer arithmetic, so
    the order is identical on every platform."""
    order = list(range(n))
    state = seed & _MASK64
    for i in range(n - 1, 0, -1):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64  # the golden gamma
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        j = (z ^ (z >> 31)) % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order
