"""Parameter serialization: a UTF-8 manifest plus a flat binary blob.

Manifest lines are `name shape dtype offset`, where `shape` is
comma-separated dimensions (`-` for scalars), dtype is always float64,
and offset is the byte position in the blob.  Blob values are
little-endian float64, row-major.  Round trips are bit-exact.  Reading
gives views of the blob's buffer, not copies.
"""

from __future__ import annotations

import math
import re

import numpy as np

_STORED = np.dtype("<f8")
_LINE = re.compile(r"(\S+) (-|[0-9]+(?:,[0-9]+)*) float64 ([0-9]+)")


def manifest_arrays(params: dict[str, np.ndarray]) -> tuple[str, list[np.ndarray]]:
    """The manifest for `params` and, in blob order, each array as its
    little-endian row-major bytes (a copy only when the array is not
    already laid out that way).  Writing the arrays back to back gives
    the blob without building it in memory."""
    lines = []
    arrays = []
    offset = 0
    for name, arr in params.items():
        if " " in name or "\n" in name:
            raise ValueError(f"parameter name {name!r} may not contain whitespace")
        arr = np.asarray(arr)
        if arr.dtype != np.float64:
            raise ValueError(f"unsupported dtype {arr.dtype.name} for {name!r}")
        shape = ",".join(str(d) for d in arr.shape) if arr.ndim else "-"
        lines.append(f"{name} {shape} float64 {offset}")
        arrays.append(arr.astype(_STORED, order="C", copy=False))
        offset += arr.nbytes
    return "\n".join(lines) + ("\n" if lines else ""), arrays


def manifest_layout(manifest: str) -> dict[str, tuple[tuple, int]]:
    """name -> (shape, byte offset), one per manifest line.  A malformed
    line raises ValueError naming it."""
    layout = {}
    for number, line in enumerate(manifest.splitlines(), 1):
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


def manifest_views(manifest: str, blob, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """name -> the stored array of that name, for each name in `shapes`,
    as a float64 view of `blob`, a C-contiguous buffer holding the whole
    blob.  A view shares the buffer's memory and its writeability.

    Every name needs a manifest line of its shape; blob entries that no
    name asks for are skipped.  Entries may not overlap or run past the
    end of the blob.
    """
    layout = manifest_layout(manifest)
    for name, shape in shapes.items():
        if name not in layout:
            raise ValueError(f"stored parameters lack {name}")
        if layout[name][0] != shape:
            raise ValueError(f"stored parameter {name} has shape {layout[name][0]}, "
                             f"expected {shape}")
    if not memoryview(blob).c_contiguous:
        raise ValueError("stored parameters must be a C-contiguous buffer")
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
