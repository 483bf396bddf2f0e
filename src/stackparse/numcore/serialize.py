"""Parameter serialization: a UTF-8 manifest plus a flat binary blob.

Manifest lines are `name shape dtype offset`, where `shape` is
comma-separated dimensions (`-` for scalars), dtype is float64/float32,
and offset is the byte position in the blob.  Blob values are
little-endian, row-major.  Round trips are bit-exact.
"""

from __future__ import annotations

import numpy as np

_DTYPE_CODES = {"float64": "<f8", "float32": "<f4"}


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


def manifest_views(manifest: str, blob) -> dict[str, np.ndarray]:
    """Read-only views into `blob`, one per manifest line; nothing is copied."""
    views: dict[str, np.ndarray] = {}
    for line in manifest.splitlines():
        line = line.strip()
        if not line:
            continue
        name, shape_text, dtype_name, offset_text = line.split(" ")
        shape = () if shape_text == "-" else tuple(int(d) for d in shape_text.split(","))
        count = int(np.prod(shape)) if shape else 1
        views[name] = np.frombuffer(blob, dtype=_DTYPE_CODES[dtype_name], count=count,
                                    offset=int(offset_text)).reshape(shape)
    return views


def params_to_manifest_blob(params: dict[str, np.ndarray]) -> tuple[str, bytes]:
    manifest, arrays = manifest_arrays(params)
    return manifest, b"".join(arrays)


def manifest_blob_to_params(manifest: str, blob: bytes) -> dict[str, np.ndarray]:
    return {name: view.astype(view.dtype.name)
            for name, view in manifest_views(manifest, blob).items()}


def save_params(path: str, params: dict[str, np.ndarray]) -> None:
    """Write `<path>.manifest` and `<path>.bin` next to each other."""
    manifest, arrays = manifest_arrays(params)
    with open(f"{path}.manifest", "w", encoding="utf-8") as f:
        f.write(manifest)
    with open(f"{path}.bin", "wb") as f:
        for arr in arrays:
            f.write(arr)


def load_params(path: str) -> dict[str, np.ndarray]:
    with open(f"{path}.manifest", encoding="utf-8") as f:
        manifest = f.read()
    with open(f"{path}.bin", "rb") as f:
        blob = f.read()
    return manifest_blob_to_params(manifest, blob)
