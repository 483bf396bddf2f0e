"""Run configuration: `key = value` lines with `#` comments.

Defaults mirror the published hyperparameters (tagger: hidden 300, lr
0.01, lambda 1e-6, dropout 15%; parser: 3 layers x 400 hidden, arc/label
feature dims 500/100, dropout 33%; stacked parser: 1 layer x 900).
`desk_scale()` gives a small preset for tests and experiments.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass
class RunConfig:
    seed: int = 0
    epochs: int = 50
    learning_rate: float = 0.01
    l2_lambda: float = 1e-6
    # tagger
    window: int = 1
    hidden: int = 300
    layers: int = 1
    word_dim: int = 50
    char_dim: int = 30
    att_dim: int = 30
    dropout: float = 0.15
    # parser
    parser_word_dim: int = 100
    tag_dim: int = 100
    parser_hidden: int = 400
    parser_layers: int = 3
    d_arc: int = 500
    d_rel: int = 100
    parser_dropout: float = 0.33
    # stacking
    stack_hidden: int = 900
    stack_layers: int = 1
    train_base_embeddings: bool = False
    # decoding / evaluation
    decoder: str = "greedy"
    include_punct: bool = True
    k: int = 10
    folds: int = 5
    # language model / selection
    lm_order: int = 5
    length_min: int = 5
    length_max: int = 50
    count_end_token: bool = True

    def __post_init__(self):
        positive = ["epochs", "hidden", "layers", "word_dim", "char_dim",
                    "att_dim", "parser_word_dim", "tag_dim", "parser_hidden",
                    "parser_layers", "d_arc", "d_rel", "stack_hidden",
                    "stack_layers", "lm_order", "length_min"]
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.l2_lambda < math.inf:
            raise ValueError("l2_lambda must be >= 0 and finite")
        for name in ("dropout", "parser_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.decoder not in ("greedy", "mst"):
            raise ValueError(f"decoder must be greedy or mst, got {self.decoder!r}")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.length_max < self.length_min:
            raise ValueError("length_max must be >= length_min")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "RunConfig":
        return cls().updated(mapping)

    def updated(self, mapping: dict[str, str]) -> "RunConfig":
        """Copy with overrides applied; unknown keys are rejected."""
        values = dataclasses.asdict(self)
        for key, raw in mapping.items():
            if key not in values:
                raise ValueError(f"unknown configuration key {key!r}")
            values[key] = _coerce(key, raw, type(values[key]))
        return RunConfig(**values)

    def to_text(self, extra: dict[str, object] | None = None) -> str:
        """Effective-config text; feeding it back via --config reproduces
        the run, so non-config annotations go in as comments."""
        lines = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{field.name} = {value}")
        for key, value in (extra or {}).items():
            lines.append(f"# {key} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def desk_scale(cls) -> "RunConfig":
        """Small preset: 1 recurrent layer, 100 hidden units."""
        return cls(hidden=100, layers=1, word_dim=24, char_dim=12, att_dim=12,
                   parser_word_dim=24, tag_dim=12, parser_hidden=100,
                   parser_layers=1, d_arc=48, d_rel=24, stack_hidden=100,
                   epochs=30)


def _coerce(key: str, raw, target: type):
    if isinstance(raw, target) and not (target is int and isinstance(raw, bool)):
        return raw
    text = str(raw).strip()
    if target is bool:
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {text!r}")
    try:
        return target(text)
    except ValueError:
        raise ValueError(f"{key}: cannot parse {text!r} as {target.__name__}") from None


def parse_config_text(text: str, where: str = "line ") -> dict[str, str]:
    """`key = value` lines; a malformed one is reported as `<where><number>`."""
    mapping: dict[str, str] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):  # strip() drops a CR
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{where}{line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.split("#", 1)[0].strip()
    return mapping


def read_text(path: str) -> str:
    """The file's UTF-8 text with its line ends as stored and without a
    leading byte-order mark; a decode error names `path`."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_config(path: str) -> RunConfig:
    return RunConfig.from_mapping(parse_config_text(read_text(path), f"{path}:"))
