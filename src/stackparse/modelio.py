"""Model archives: one zip per model holding the parameter manifest and
blob, vocabulary manifests (token per line, index = line number), and a
`meta.txt` of `key = value` hyperparameters.  Stacked archives embed both
parameter sets with `base/` and `target/` name prefixes.  Writes are
atomic (temp file + rename); round trips are bit-exact.

`params.bin` is stored uncompressed: deflate makes float64 weights only
~5% smaller but a save ~30x slower.  Saving streams each array into the
member.  Loading builds the model with zero arrays (`rng=None`; the
pretrained table as zeros of its stored shape), checks every array's
stored shape, and then reads the member once, a chunk at a time,
straight into those arrays, so the blob is never held in memory next to
the model and zero pages are written only once.  Archives whose
`params.bin` is deflated still load; a corrupt one fails its CRC check.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
import zipfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numcore as nc
from .embeddings import PretrainedEmbeddings
from .parser import ParserModel
from .stacking import StackedParser, StackedTagger
from .tagger import TaggerModel


def _write_atomic(path: str, write_fn) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        write_fn(temp_path)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def write_text_atomic(path: str, text: str) -> None:
    def writer(temp_path):
        with open(temp_path, "w", encoding="utf-8") as f:
            f.write(text)
    _write_atomic(path, writer)


def _vocab_text(vocab: dict[str, int]) -> str:
    ordered = sorted(vocab.items(), key=lambda kv: kv[1])
    return "".join(f"{token}\n" for token, _ in ordered)


def _read_lines(archive: zipfile.ZipFile, name: str) -> list[str]:
    with archive.open(name) as f:
        text = f.read().decode("utf-8")
    return text.split("\n")[:-1]  # keep forms that contain spaces intact


def _read_vocab(archive: zipfile.ZipFile, name: str) -> dict[str, int]:
    return {token: i for i, token in enumerate(_read_lines(archive, name))}


@dataclass(frozen=True)
class _Spec:
    """How one model class is laid out in an archive.

    `meta` names the constructor keywords kept in `meta.txt`.  `subs` are
    embedded models, stored under `<attr>.` meta keys and `<attr>/`
    members.  A spec with `params` also owns, under `prefix`, one
    `<name>.txt` member per label tuple in `lists` and per (member,
    attribute) vocabulary in `vocabs`, a pretrained table, and the
    parameters `params` returns.  The constructor takes the sub-models,
    lists and vocabularies positionally, in that order.
    """

    kind: str
    cls: type
    meta: tuple[str, ...]
    lists: tuple[str, ...] = ()
    vocabs: tuple[tuple[str, str], ...] = ()
    params: Callable[[object], dict[str, nc.Tensor]] | None = None
    prefix: str = ""
    subs: tuple[tuple[str, "_Spec"], ...] = ()


_TAGGER = _Spec("tagger", TaggerModel,
                ("word_dim", "char_dim", "att_dim", "hidden", "layers", "window",
                 "dropout", "extra_input_dim"),
                ("tags",), (("words", "word_vocab"), ("chars", "char_vocab")),
                TaggerModel.parameters)
_PARSER = _Spec("parser", ParserModel,
                ("word_dim", "tag_dim", "hidden", "layers", "d_arc", "d_rel", "dropout"),
                ("rels", "tags"), (("words", "word_vocab"),), ParserModel.parameters)
_SPECS = (
    _TAGGER, _PARSER,
    _Spec("stacked-tagger", StackedTagger, ("train_base_embeddings",),
          subs=(("base", _TAGGER), ("target", _TAGGER))),
    _Spec("stacked-parser", StackedParser,
          ("train_base_embeddings", "word_dim", "tag_dim", "hidden", "layers", "dropout"),
          ("rels", "tags"), (("words", "word_vocab"),), StackedParser.target_parameters,
          prefix="target/", subs=(("base", _PARSER),)),
)
_META_TYPES = {"dropout": float, "train_base_embeddings": lambda v: v == "True"}


def _meta(spec: _Spec, model, key_prefix: str = "") -> dict[str, object]:
    items = {f"{key_prefix}{k}": getattr(model, k) for k in spec.meta}
    if spec.params:
        items[f"{key_prefix}pretrained_dim"] = model.pretrained.dim
        best = model.best_epoch
        items[f"{key_prefix}best_epoch"] = "" if best is None else best
    for attr, sub in spec.subs:
        items.update(_meta(sub, getattr(model, attr), f"{key_prefix}{attr}."))
    return items


def _texts(spec: _Spec, model, path: str = "") -> dict[str, str]:
    """Text members keyed by archive name."""
    texts: dict[str, str] = {}
    for attr, sub in spec.subs:
        texts.update(_texts(sub, getattr(model, attr), f"{path}{attr}/"))
    if spec.params:
        own = path + spec.prefix
        for name in spec.lists:
            texts[f"{own}{name}.txt"] = "".join(f"{item}\n" for item in getattr(model, name))
        for name, attr in spec.vocabs:
            texts[f"{own}{name}.txt"] = _vocab_text(getattr(model, attr))
        texts[f"{own}pretrained_vocab.txt"] = _vocab_text(model.pretrained.vocab)
    return texts


def _arrays(spec: _Spec, model, path: str = "") -> dict[str, np.ndarray]:
    """Parameter arrays, the pretrained table included, keyed by archive name."""
    arrays: dict[str, np.ndarray] = {}
    for attr, sub in spec.subs:
        arrays.update(_arrays(sub, getattr(model, attr), f"{path}{attr}/"))
    if spec.params:
        own = path + spec.prefix
        arrays.update({f"{own}{k}": t.data for k, t in spec.params(model).items()})
        arrays[f"{own}const/pretrained_table"] = model.pretrained.matrix
    return arrays


def _build(spec: _Spec, meta: dict[str, str], archive: zipfile.ZipFile,
           layout: dict[str, tuple], path: str = ""):
    """The model with every stored array still zero (`rng=None`); the
    pretrained table is zeros of its stored shape."""
    subs = []
    for attr, sub in spec.subs:
        cut = len(attr) + 1
        sub_meta = {k[cut:]: v for k, v in meta.items() if k.startswith(f"{attr}.")}
        subs.append(_build(sub, sub_meta, archive, layout, f"{path}{attr}/"))
    kwargs = {k: _META_TYPES.get(k, int)(meta[k]) for k in spec.meta}
    if not spec.params:
        return spec.cls(*subs, **kwargs)
    own = path + spec.prefix
    lists = [_read_lines(archive, f"{own}{name}.txt") for name in spec.lists]
    vocabs = [_read_vocab(archive, f"{own}{name}.txt") for name, _ in spec.vocabs]
    table = layout.get(f"{own}const/pretrained_table")
    pretrained = None
    if table is not None and math.prod(table[0]):
        pretrained = PretrainedEmbeddings(_read_vocab(archive, f"{own}pretrained_vocab.txt"),
                                          np.zeros(table[0]))
    model = spec.cls(*subs, *lists, *vocabs, pretrained=pretrained, rng=None, **kwargs)
    if meta.get("best_epoch"):
        model.best_epoch = int(meta["best_epoch"])
    return model


def save_model(path: str, model) -> None:
    spec = next((s for s in _SPECS if isinstance(model, s.cls)), None)
    if spec is None:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    meta = {"type": spec.kind, **_meta(spec, model)}
    texts = _texts(spec, model)
    manifest, arrays = nc.manifest_arrays(_arrays(spec, model))

    def writer(temp_path):
        with zipfile.ZipFile(temp_path, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("meta.txt", "".join(f"{k} = {v}\n" for k, v in meta.items()))
            for name, text in texts.items():
                archive.writestr(name, text)
            archive.writestr("manifest.txt", manifest)
            # Known size up front, so zipfile decides zip64 before writing.
            info = zipfile.ZipInfo("params.bin", time.localtime()[:6])
            info.compress_type = zipfile.ZIP_STORED
            info.file_size = sum(arr.nbytes for arr in arrays)
            with archive.open(info, "w") as member:
                for arr in arrays:
                    member.write(arr)

    _write_atomic(path, writer)


def load_model(path: str):
    with zipfile.ZipFile(path) as archive:
        meta = {}
        for line in archive.read("meta.txt").decode("utf-8").splitlines():
            if line.strip():
                key, _, value = line.partition("=")
                meta[key.strip()] = value.strip()
        kind = meta.get("type")
        spec = next((s for s in _SPECS if s.kind == kind), None)
        if spec is None:
            raise ValueError(f"unknown model type {kind!r} in {path}")
        manifest = archive.read("manifest.txt").decode("utf-8")
        model = _build(spec, meta, archive, nc.manifest_layout(manifest))
        with archive.open("params.bin") as blob:
            nc.manifest_read_into(manifest, blob, _arrays(spec, model))
        return model
