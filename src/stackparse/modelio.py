"""Model archives: one zip per model holding the parameter manifest and
blob, vocabulary manifests (token per line, index = line number), and a
`meta.txt` of `key = value` hyperparameters.  Stacked archives embed both
parameter sets with `base/` and `target/` name prefixes.  Writes are
atomic (temp file + rename); round trips are bit-exact.

`manifest.txt` has one `name shape float64 offset` line per stored array:
`shape` is comma-separated dimensions (`-` for a scalar) and `offset` the
array's byte position in `params.bin`, which holds the arrays back to back
as little-endian float64, row-major.  A pretrained table is 2-D, with one
row per line of its `pretrained_vocab.txt`.

`params.bin` is stored uncompressed: deflate makes float64 weights only
~5% smaller but a save ~30x slower.  Saving streams each array into the
member, and pads the member's local header with an alignment extra field
(as Android's zipalign does) so that its data starts on a 64-byte file
offset.  Loading builds the model with zero arrays (`rng=None`; the
pretrained table as zeros of its stored shape), which are neither
scanned nor written and so cost no pages, and then points every stored
array at its bytes in `params.bin`: a stored member at an aligned offset
is mapped copy-on-write, so the weights are read where they lie in the
file and a trainer that updates a loaded model writes to private pages,
never to the file.  A mapped member's CRC is checked in two
halves on two threads.  Any other member (deflated, or from an archive
saved before alignment or by another zip writer) is read once into one
buffer through zipfile, which checks its CRC.

Pages of a mapping that the process has not written are read from the
file when first touched, also after the CRC check.  So an archive must
not be modified in place (`cp` or `rsync --inplace` onto it) while a
process holds a model loaded from it: the model would see the new bytes,
or the process would die of SIGBUS if the file shrank.  Replacing the
file by rename is safe, and this module's saves do that.
"""

from __future__ import annotations

import copy
import io
import math
import os
import re
import struct
import tempfile
import time
import zipfile
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numcore as nc
from .config import parse_config_text
from .embeddings import PretrainedEmbeddings
from .numcore.worker import in_parallel
from .parser import ParserModel
from .stacking import StackedParser, StackedTagger
from .tagger import TaggerModel


def _write_atomic(path: str, write_fn) -> None:
    """`write_fn` fills a temp file that is renamed onto `path`; OS errors name `path`."""
    directory = os.path.dirname(os.path.abspath(path))
    temp_path = None
    try:
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        os.close(fd)
        write_fn(temp_path)
        os.replace(temp_path, path)
    except BaseException as exc:
        if temp_path is not None and os.path.exists(temp_path):
            os.unlink(temp_path)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
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
    """Token -> line index; a token on two lines would give a shorter
    vocabulary, every later token its neighbour's row, so it is refused."""
    tokens = _read_lines(archive, name)
    vocab = dict(zip(tokens, range(len(tokens))))
    if len(vocab) != len(tokens):
        first: dict[str, int] = {}
        for i, token in enumerate(tokens):
            if token in first:
                raise ValueError(f"{name}: line {i + 1} repeats line {first[token] + 1} "
                                 f"({token!r})")
            first[token] = i
    return vocab


_STORED = np.dtype("<f8")
_LINE = re.compile(r"(\S+) (-|[0-9]+(?:,[0-9]+)*) float64 ([0-9]+)")


def _manifest_arrays(arrays: dict[str, np.ndarray]) -> tuple[str, list[np.ndarray]]:
    """The manifest for `arrays` and, in blob order, each array as its
    little-endian row-major bytes (a copy only when the array is not
    already laid out that way).  Written back to back, they are the blob."""
    lines = []
    stored = []
    offset = 0
    for name, arr in arrays.items():
        if " " in name or "\n" in name:
            raise ValueError(f"parameter name {name!r} may not contain whitespace")
        arr = np.asarray(arr)
        if arr.dtype != np.float64:
            raise ValueError(f"unsupported dtype {arr.dtype.name} for {name!r}")
        shape = ",".join(str(d) for d in arr.shape) if arr.ndim else "-"
        lines.append(f"{name} {shape} float64 {offset}")
        stored.append(arr.astype(_STORED, order="C", copy=False))
        offset += arr.nbytes
    return "\n".join(lines) + ("\n" if lines else ""), stored


def _manifest_layout(manifest: str) -> dict[str, tuple[tuple, int]]:
    """name -> (shape, byte offset), one per manifest line.  A malformed
    line raises ValueError naming it."""
    layout = {}
    for number, line in enumerate(manifest.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        match = _LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"manifest line {number} is not 'name shape float64 offset': {line!r}")
        name, shape_text, offset_text = match.groups()
        if name in layout:
            raise ValueError(f"manifest line {number} names {name} a second time")
        shape = () if shape_text == "-" else tuple(int(d) for d in shape_text.split(","))
        layout[name] = (shape, int(offset_text))
    return layout


def _manifest_views(layout: dict[str, tuple[tuple, int]], blob,
                    shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """name -> the stored array of that name, for each name in `shapes`,
    as a float64 view of the whole blob `blob`, sharing its memory and its
    writeability.

    Every name needs a layout entry of its shape; entries that no name
    asks for are skipped.  Entries may not overlap or run past the end of
    the blob.
    """
    for name, shape in shapes.items():
        if name not in layout:
            raise ValueError(f"stored parameters lack {name}")
        if layout[name][0] != shape:
            raise ValueError(f"stored parameter {name} has shape {layout[name][0]}, "
                             f"expected {shape}")
    flat = np.frombuffer(blob, np.uint8)
    position = 0
    for name, (shape, offset) in sorted(layout.items(), key=lambda item: item[1][1]):
        if offset < position:
            raise ValueError(f"stored parameter {name} overlaps the one before it")
        position = offset + math.prod(shape) * _STORED.itemsize
        if position > len(flat):
            raise ValueError("stored parameters end early")
    views = {}
    for name, shape in shapes.items():
        offset = layout[name][1]
        size = math.prod(shape) * _STORED.itemsize
        views[name] = flat[offset:offset + size].view(_STORED).reshape(shape)
    return views


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
          ("rels", "tags"), (("words", "word_vocab"),), StackedParser.parameters,
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


def _slots(spec: _Spec, model, path: str = "") -> dict[str, tuple[object, str]]:
    """Where each stored array lives, keyed by archive name: (holder,
    attribute) of a parameter tensor's `data` or the pretrained table."""
    slots: dict[str, tuple[object, str]] = {}
    for attr, sub in spec.subs:
        slots.update(_slots(sub, getattr(model, attr), f"{path}{attr}/"))
    if spec.params:
        own = path + spec.prefix
        slots.update({f"{own}{k}": (t, "data") for k, t in spec.params(model).items()})
        slots[f"{own}const/pretrained_table"] = (model.pretrained, "matrix")
    return slots


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
    if table is not None:
        shape, vocab_name = table[0], f"{own}pretrained_vocab.txt"
        vocab = _read_vocab(archive, vocab_name)
        if len(shape) != 2 or shape[0] != len(vocab):
            raise ValueError(f"stored parameter {own}const/pretrained_table has shape {shape}, "
                             f"expected ({len(vocab)}, dim): one row per line of {vocab_name}")
        if math.prod(shape):
            pretrained = PretrainedEmbeddings(vocab, np.zeros(shape))
    model = spec.cls(*subs, *lists, *vocabs, pretrained=pretrained, rng=None, **kwargs)
    if meta.get("best_epoch"):
        model.best_epoch = int(meta["best_epoch"])
    return model


_ALIGN = 64  # params.bin data offset: a cache line, and a multiple of float64's alignment
_ALIGN_FIELD = 0xD935  # zip extra field id of Android's zipalign: 2-byte alignment, then padding
_LOCAL_HEADER = struct.Struct("<4s22xHH")  # signature, ..., name length, extra length


def _alignment_extra(info: zipfile.ZipInfo, position: int) -> bytes:
    """The extra field that makes the data of `info`, whose local header
    goes at file offset `position`, start on a multiple of _ALIGN.  The
    header's length is read from one that zipfile writes for a copy of
    `info` into a scratch zip, so the fields it adds itself (zip64) count."""
    probe_info = copy.copy(info)
    probe_info.extra = struct.pack("<HHH", _ALIGN_FIELD, 2, _ALIGN)
    scratch = io.BytesIO()
    with zipfile.ZipFile(scratch, "w") as probe, probe.open(probe_info, "w"):
        pad = -(position + scratch.tell()) % _ALIGN
    return struct.pack("<HHH", _ALIGN_FIELD, 2 + pad, _ALIGN) + bytes(pad)


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC-32 of A + B from crc1 = crc32(A), crc2 = crc32(B) and len2 =
    len(B), as zlib's crc32_combine: crc1 times x^(8 len2), plus crc2,
    modulo the CRC polynomial (bit-reflected, as zlib keeps it)."""
    def times(a: int, b: int) -> int:
        product, bit = 0, 1 << 31  # bit 31 holds x^0
        while a:
            if a & bit:
                product ^= b
                a ^= bit
            bit >>= 1
            b = (b >> 1) ^ 0xEDB88320 if b & 1 else b >> 1
        return product

    power, square, n = 1 << 31, 1 << 30, 8 * len2  # x^0, x^1
    while n:
        if n & 1:
            power = times(square, power)
        square = times(square, square)
        n >>= 1
    return times(power, crc1) ^ crc2


def _check_crc(blob: np.ndarray, expected: int) -> None:
    half = len(blob) // 2
    first, second = in_parallel(lambda: zlib.crc32(blob[:half]),
                                lambda: zlib.crc32(blob[half:]))
    if crc32_combine(first, second, len(blob) - half) != expected:
        raise zipfile.BadZipFile("Bad CRC-32 for file 'params.bin'")


def _read_all(stream, size: int) -> np.ndarray:
    blob = np.empty(size, np.uint8)
    filled = 0
    while filled < size:
        got = stream.readinto(blob[filled:filled + (1 << 20)])
        if not got:
            raise ValueError("stored parameters end early")
        filled += got
    return blob


def _params_blob(path: str, archive: zipfile.ZipFile) -> np.ndarray:
    """The bytes of `params.bin`, CRC-checked and writeable: a copy-on-write
    mapping of the file when the member is stored at an aligned offset,
    else one buffer read through zipfile, which checks the CRC as it reads."""
    info = archive.getinfo("params.bin")
    with open(path, "rb") as f:
        f.seek(info.header_offset)
        header = f.read(_LOCAL_HEADER.size)
    start = None
    if info.compress_type == zipfile.ZIP_STORED and header[:4] == b"PK\x03\x04":
        _, name_length, extra_length = _LOCAL_HEADER.unpack(header)
        start = info.header_offset + _LOCAL_HEADER.size + name_length + extra_length
    if start is None or start % _ALIGN:
        with archive.open(info) as member:
            return _read_all(member, info.file_size)
    blob = np.asarray(np.memmap(path, np.uint8, "c", start, (info.file_size,)))
    _check_crc(blob, info.CRC)
    return blob


def save_model(path: str, model) -> None:
    # A parser built on a base is archived, and loads back, as a stacked parser.
    cls = StackedParser if type(model) is ParserModel and model.base is not None else type(model)
    spec = next((s for s in _SPECS if cls is s.cls), None)
    if spec is None:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    meta = {"type": spec.kind, **_meta(spec, model)}
    texts = _texts(spec, model)
    slots = _slots(spec, model)
    manifest, arrays = _manifest_arrays({k: getattr(*slot) for k, slot in slots.items()})

    def writer(temp_path):
        with open(temp_path, "wb") as f, zipfile.ZipFile(f, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("meta.txt", "".join(f"{k} = {v}\n" for k, v in meta.items()))
            for name, text in texts.items():
                archive.writestr(name, text)
            archive.writestr("manifest.txt", manifest)
            # Known size up front, so zipfile decides zip64 before writing.
            info = zipfile.ZipInfo("params.bin", time.localtime()[:6])
            info.compress_type = zipfile.ZIP_STORED
            info.file_size = sum(arr.nbytes for arr in arrays)
            info.extra = _alignment_extra(info, f.tell())
            with archive.open(info, "w") as member:
                for arr in arrays:
                    member.write(arr)

    _write_atomic(path, writer)


def load_model(path: str):
    with zipfile.ZipFile(path) as archive:
        meta = parse_config_text(archive.read("meta.txt").decode("utf-8"))
        kind = meta.get("type")
        spec = next((s for s in _SPECS if s.kind == kind), None)
        if spec is None:
            raise ValueError(f"unknown model type {kind!r} in {path}")
        layout = _manifest_layout(archive.read("manifest.txt").decode("utf-8"))
        model = _build(spec, meta, archive, layout)
        blob = _params_blob(path, archive)
    slots = _slots(spec, model)
    views = _manifest_views(layout, blob, {k: getattr(*slot).shape for k, slot in slots.items()})
    for name, (holder, attr) in slots.items():
        setattr(holder, attr, views[name])
    return model
