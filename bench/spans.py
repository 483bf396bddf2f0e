"""Span tracing around the calls into each stackparse layer.

An untraced run never installs anything from here.  A traced run
replaces the public functions listed in SPANS with wrappers that record
one span per call, and `uninstall` puts the originals back.  Spans live
in memory; a layer's self time is its span's duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, span name).  A function that other modules
# import by name is wrapped in each importing module as well, because a
# patched module attribute is only seen through that module's globals.
SPANS = [
    ("stackparse.cli", "main", "cli"),
    ("stackparse.numcore", "Tensor.backward", "numcore.backward"),
    ("stackparse.numcore", "AdagradState.apply", "numcore.adagrad"),
    ("stackparse.numcore", "bilstm_encode", "numcore.bilstm"),
    ("stackparse.tagger", "train_tagger", "tagger.train"),
    ("stackparse.tagger", "tag", "tagger.tag"),
    ("stackparse.tagger", "TaggerModel.loss", "tagger.loss"),
    ("stackparse.tagger", "TaggerModel.char_attention", "tagger.char_attention"),
    ("stackparse.tagger", "crf_log_likelihood", "tagger.crf"),
    ("stackparse.stacking", "crf_log_likelihood", "tagger.crf"),
    ("stackparse.tagger", "viterbi_decode", "tagger.viterbi"),
    ("stackparse.stacking", "viterbi_decode", "tagger.viterbi"),
    ("stackparse.parser", "train_parser", "parser.train"),
    ("stackparse.parser", "parse", "parser.parse"),
    ("stackparse.stacking", "parse_with", "parser.parse"),
    ("stackparse.parser", "ParserModel.forward_full", "parser.forward"),
    ("stackparse.parser", "arc_label_loss", "parser.loss"),
    ("stackparse.stacking", "arc_label_loss", "parser.loss"),
    ("stackparse.parser", "ParserModel.label_scores", "parser.label"),
    ("stackparse.parser", "decode_greedy", "parser.decode_greedy"),
    ("stackparse.parser", "decode_mst", "parser.decode_mst"),
    ("stackparse.stacking", "train_stacked_tagger", "stacking.train"),
    ("stackparse.stacking", "train_stacked_parser", "stacking.train"),
    ("stackparse.stacking", "StackedTagger.loss", "stacking.tagger_loss"),
    ("stackparse.stacking", "StackedTagger.tag", "stacking.tag"),
    ("stackparse.stacking", "StackedParser.forward_full", "stacking.forward"),
    ("stackparse.stacking", "StackedParser.label_scores", "stacking.label"),
    ("stackparse.cli", "save_model", "modelio.save"),
    ("stackparse.cli", "load_model", "modelio.load"),
    ("stackparse.cli", "write_text_atomic", "modelio.write_text"),
    ("stackparse.cli", "parse_conllu", "treebank.parse_conllu"),
    ("stackparse.cli", "write_conllu", "treebank.write_conllu"),
    ("stackparse.cli", "load_embeddings", "embeddings.load"),
    ("stackparse.langmodel", "train_ngram_lm", "langmodel.train"),
    ("stackparse.langmodel", "NgramLM.to_json", "langmodel.to_json"),
    ("stackparse.langmodel", "NgramLM.from_json", "langmodel.from_json"),
    ("stackparse.langmodel", "sentence_logprob", "langmodel.logprob"),
    ("stackparse.langmodel", "match_lexicon", "langmodel.match_lexicon"),
    ("stackparse.langmodel", "rank_by_divergence", "langmodel.rank"),
]

LAYERS = ["numcore", "tagger", "parser", "stacking", "langmodel", "modelio",
          "treebank", "embeddings", "cli"]
FORWARD_SPANS = ("parser.forward", "stacking.forward")


class Tracer:
    """Records (name, command, id, parent id, start, end, self seconds)
    per call; `command` is the CLI command the caller says is running."""

    def __init__(self):
        self.spans: list[tuple[str, str, int, int, float, float, float]] = []
        self.command = ""
        self.recording = False
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append((name, self.command, frame[0],
                                   parent[0] if parent else -1, start, end,
                                   end - start - frame[1]))
        return traced

    def install(self) -> None:
        for module_name, path, name in SPANS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self, iterations: int) -> dict[str, float]:
        """Per-iteration self seconds and call counts per span name, per
        layer (`<layer>.self_s`) and for outermost parser forwards."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        names = {span[2]: span[0] for span in self.spans}
        parents = {span[2]: span[3] for span in self.spans}
        outer_forward = Counter()
        for name, command, span_id, parent, _start, _end, own in self.spans:
            self_s[name] += own
            calls[name] += 1
            if name in FORWARD_SPANS:
                node = parent
                while node != -1 and names[node] not in FORWARD_SPANS:
                    node = parents[node]
                if node == -1:
                    outer_forward[command] += 1
        out = {f"{name}_s": total / iterations for name, total in self_s.items()}
        out.update({f"{name}_calls": count / iterations for name, count in calls.items()})
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                total for name, total in self_s.items()
                if name == layer or name.startswith(layer + ".")) / iterations
        out["parser.forward_calls"] = sum(outer_forward.values()) / iterations
        out["_outer_forward_by_command"] = {k: v / iterations for k, v in outer_forward.items()}
        return out
