"""Every function, class and method that `src/` defines has a caller.

The check is lexical.  For each name defined in `src/stackparse/**/*.py`
other than dunders, some other occurrence of it must appear in `src/` or
`bench/`: as a code token, or as a word in a string literal that is not
a docstring, because `getattr` names, the tracer's "Class.method" paths
and f-strings call by string.  An import line is not a use, and tests
do not count as callers: a helper only tests use belongs in
`tests/util.py`.

What this cannot see: a name shared with a live one, such as the
stacked tagger's `tags` method next to every model's `tags` attribute,
or a word in a message that happens to spell a dead name.  Either counts
as a caller.  Nor can it see an operator, `sum` or `item`, so a second
check runs the four trainers and the decoders and records which
functions of `numcore/tensor.py` they call.
"""

from __future__ import annotations

import ast
import inspect
import io
import re
import sys
import threading
import tokenize
from collections import Counter
from pathlib import Path

import numpy as np

from stackparse.numcore import tensor
from stackparse.parser import parse, train_parser
from stackparse.stacking import train_stacked_parser, train_stacked_tagger
from stackparse.tagger import train_tagger
from util import random_tree_sentence

ROOT = Path(__file__).resolve().parents[1]

# Kept without a caller, each for a reason ROADMAP gives.
ALLOWED = {
    "cond_prob": "the LM's probability query, which the hand-value tests pin",
    "relative_error_reduction": "the paper's headline metric (criterion 1)",
    "desk_scale": "the desk-scale settings that ROADMAP's timings and README name",
}

_TEXT = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def _import_lines(tree: ast.AST) -> set[int]:
    return {line for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for line in range(node.lineno, node.end_lineno + 1)}


def _reach():
    """(occurrences of each word in src/ and bench/, [(path, line, name)]
    of every non-dunder def and class in src/)."""
    counts, defined = Counter(), []
    for top in ("src", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text)
            docstrings, imports = _docstring_starts(tree), _import_lines(tree)
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                if tok.start[0] in imports:
                    continue
                if tok.type == tokenize.NAME:
                    counts[tok.string] += 1
                elif tok.type in _TEXT and tok.start not in docstrings:
                    counts.update(re.findall(r"\w+", tok.string))
            if top == "src":
                defined += [(path.relative_to(ROOT), node.lineno, node.name)
                            for node in ast.walk(tree)
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                 ast.ClassDef))
                            and not (node.name.startswith("__") and node.name.endswith("__"))]
    return counts, defined


def test_every_name_src_defines_has_a_caller():
    counts, defined = _reach()
    assert len(defined) > 200  # the walk found the package
    uncalled = {name: f"{path}:{line}" for path, line, name in defined if counts[name] < 2}
    assert set(uncalled) == set(ALLOWED), uncalled


# Functions of numcore/tensor.py that no training step or decoder runs:
# tape surface kept for the tests' gradient checks and references.
TAPE_TEST_ONLY = {
    "Tensor.sum": "reduces a test loss to the scalar that backward() starts from",
    "_sum": "the op behind Tensor.sum",
    "_sum.backward": "its gradient",
    "Tensor.item": "reads a test loss as a float, as the gradient checker does",
    "Tensor.__rsub__": "`1.0 - gate` in the per-step LSTM reference",
}


def _functions(code, prefix=""):
    """{(first line, name): dotted name} of every function and closure
    defined in `code`, class bodies walked, comprehensions left out."""
    found = {}
    for const in code.co_consts:
        if inspect.iscode(const) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                found[const.co_firstlineno, const.co_name] = name
            found.update(_functions(const, name + "."))
    return found


def test_every_tape_function_runs_in_training_or_decoding(tiny_cfg):
    path = tensor.__file__
    with open(path, encoding="utf-8") as f:
        defined = _functions(compile(f.read(), path, "exec"))
    ran = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == path:
            ran.add((frame.f_code.co_firstlineno, frame.f_code.co_name))

    rng = np.random.default_rng(0)
    sentences = [random_tree_sentence(rng, n) for n in (2, 4, 5)]
    config = tiny_cfg.updated({"epochs": "1", "dropout": "0.15", "parser_dropout": "0.33"})
    sys.setprofile(record)
    threading.setprofile(record)
    try:
        tagger = train_tagger(sentences, sentences[:1], config)
        stacked_tagger = train_stacked_tagger(tagger, sentences, sentences[:1], config)
        parser = train_parser(sentences, sentences[:1], config)
        stacked_parser = train_stacked_parser(parser, sentences, sentences[:1], config)
        for model in (tagger, stacked_tagger):
            model.tag(sentences[1])
        for model in (parser, stacked_parser):
            for decoder in ("greedy", "mst"):
                parse(model, sentences[2], decoder=decoder)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    unrun = {name for key, name in defined.items() if key not in ran}
    assert len(defined) > 40  # the walk found the module's functions
    assert unrun == set(TAPE_TEST_ONLY), unrun
