"""Parameter serialization: a UTF-8 manifest plus a flat binary blob.

Manifest lines are `name shape dtype offset`, where `shape` is
comma-separated dimensions (`-` for scalars), dtype is float64/float32,
and offset is the byte position in the blob.  Blob values are
little-endian, row-major.  Round trips are bit-exact.
"""

from __future__ import annotations

import math

import numpy as np

_DTYPE_CODES = {"float64": "<f8", "float32": "<f4"}
_CHUNK = 1 << 18  # bytes per read


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
        dtype_name = arr.dtype.name
        if dtype_name not in _DTYPE_CODES:
            raise ValueError(f"unsupported dtype {dtype_name} for {name!r}")
        shape = ",".join(str(d) for d in arr.shape) if arr.ndim else "-"
        lines.append(f"{name} {shape} {dtype_name} {offset}")
        arrays.append(arr.astype(_DTYPE_CODES[dtype_name], order="C", copy=False))
        offset += arr.nbytes
    return "\n".join(lines) + ("\n" if lines else ""), arrays


def manifest_layout(manifest: str) -> dict[str, tuple[tuple, str, int]]:
    """name -> (shape, little-endian dtype code, byte offset), one per
    manifest line."""
    layout = {}
    for line in manifest.splitlines():
        line = line.strip()
        if not line:
            continue
        name, shape_text, dtype_name, offset_text = line.split(" ")
        shape = () if shape_text == "-" else tuple(int(d) for d in shape_text.split(","))
        layout[name] = (shape, _DTYPE_CODES[dtype_name], int(offset_text))
    return layout


def manifest_read_into(manifest: str, stream, arrays: dict[str, np.ndarray]) -> None:
    """Fill each of `arrays` in place from the blob that the binary
    `stream` yields, read once from start to end a chunk at a time, so
    the blob is never held in memory.

    Every array needs a manifest line of its shape; blob entries that no
    array asks for are skipped.  An array of another dtype than the
    stored one gets the stored values converted.  The stream is read to
    its end, so a zip member's CRC is checked.
    """
    layout = manifest_layout(manifest)
    for name, arr in arrays.items():
        if name not in layout:
            raise ValueError(f"stored parameters lack {name}")
        if layout[name][0] != arr.shape:
            raise ValueError(f"stored parameter {name} has shape {layout[name][0]}, "
                             f"expected {arr.shape}")
    position = 0
    for name, (shape, code, offset) in sorted(layout.items(), key=lambda item: item[1][2]):
        if offset < position:
            raise ValueError(f"stored parameter {name} overlaps the one before it")
        _skip(stream, offset - position)
        stored = np.dtype(code)
        dest = arrays.get(name)
        if dest is None:
            _skip(stream, math.prod(shape) * stored.itemsize)
        elif dest.dtype == stored and dest.flags.c_contiguous:
            _fill(stream, dest.reshape(-1).view(np.uint8))
        else:
            values = np.empty(shape, stored)
            _fill(stream, values.reshape(-1).view(np.uint8))
            dest[...] = values
        position = offset + math.prod(shape) * stored.itemsize
    while stream.read(_CHUNK):
        pass


def _fill(stream, buffer: np.ndarray) -> None:
    filled = 0
    while filled < len(buffer):
        got = stream.readinto(buffer[filled:filled + _CHUNK])
        if not got:
            raise ValueError("stored parameters end early")
        filled += got


def _skip(stream, count: int) -> None:
    while count > 0:
        got = len(stream.read(min(count, _CHUNK)))
        if not got:
            raise ValueError("stored parameters end early")
        count -= got
