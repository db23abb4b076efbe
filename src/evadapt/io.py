"""Bit-exact file formats: named-tensor dumps, RLE masks, run configs.

Tensor dump layout (all multi-byte integers little-endian):

    magic    4 bytes  "EVDT"
    version  u16      currently 1
    meta_len u32      UTF-8 JSON metadata (may be 0)
    meta     bytes
    count    u32      number of entries
    per entry:
        name_len u16, name UTF-8
        dtype    u8   0 = f32, 1 = f64
        rank     u8
        dims     rank x u64
        payload  raw row-major values

Mask files are text RLE over row-major cells: one instance per line,
"id: start,len start,len ...".
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"EVDT"
VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}


class DumpFormatError(ValueError):
    pass


def write_dump(path, tensors: dict[str, np.ndarray], meta: dict | None = None):
    meta_bytes = json.dumps(meta, sort_keys=True).encode() if meta else b""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HI", VERSION, len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr, order="C")  # keeps rank-0 arrays rank 0
            if arr.dtype not in _DTYPE_CODES:
                raise DumpFormatError(f"unsupported dtype {arr.dtype} for '{name}'")
            nb = name.encode()
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())


def read_dump(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise DumpFormatError("bad magic bytes")
        version, meta_len = struct.unpack("<HI", fh.read(6))
        if version != VERSION:
            raise DumpFormatError(f"unsupported version {version}")
        meta = json.loads(fh.read(meta_len)) if meta_len else {}
        (count,) = struct.unpack("<I", fh.read(4))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode()
            code, rank = struct.unpack("<BB", fh.read(2))
            if code not in _DTYPES:
                raise DumpFormatError(f"unknown dtype code {code}")
            dims = struct.unpack(f"<{rank}Q", fh.read(8 * rank)) if rank else ()
            dt = _DTYPES[code]
            n = int(np.prod(dims)) if dims else 1
            payload = fh.read(n * dt.itemsize)
            if len(payload) != n * dt.itemsize:
                raise DumpFormatError(f"truncated payload for '{name}'")
            tensors[name] = np.frombuffer(payload, dtype=dt).reshape(dims).copy()
    return tensors, meta


# -- RLE masks --------------------------------------------------------------

def write_masks(path, masks, ids=None, shape=None):
    """Write instance masks as row-major run-length text."""
    ids = ids if ids is not None else list(range(len(masks)))
    with open(path, "w", encoding="utf-8") as fh:
        if shape is None and masks:
            shape = masks[0].shape
        if shape is not None:
            fh.write(f"# H={shape[0]} W={shape[1]}\n")
        for mid, mask in zip(ids, masks):
            flat = np.asarray(mask, dtype=bool).ravel()
            edges = np.flatnonzero(np.diff(flat, prepend=False, append=False))
            runs = " ".join(f"{i},{j - i}" for i, j in
                            zip(edges[0::2].tolist(), edges[1::2].tolist()))
            fh.write(f"{mid}: {runs}\n")


def read_masks(path) -> tuple[list[np.ndarray], list[int], tuple[int, int]]:
    shape = None
    masks, ids = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = dict(p.split("=") for p in line[1:].split())
                shape = (int(parts["H"]), int(parts["W"]))
                continue
            if shape is None:
                raise DumpFormatError("mask file missing '# H=.. W=..' header")
            head, _, runs = line.partition(":")
            flat = np.zeros(shape[0] * shape[1], dtype=bool)
            for run in runs.split():
                start, length = (int(v) for v in run.split(","))
                if start < 0 or length < 1 or start + length > flat.size:
                    raise DumpFormatError(
                        f"line {lineno}: run {run!r} is empty or outside the "
                        f"{shape[0]}x{shape[1]} grid")
                flat[start:start + length] = True
            masks.append(flat.reshape(shape))
            ids.append(int(head))
    if shape is None:
        raise DumpFormatError("empty mask file")
    return masks, ids, shape


# -- run configuration ------------------------------------------------------

class ConfigError(ValueError):
    pass


def validate_keys(doc: dict, allowed: dict, path: str = ""):
    """Reject unknown keys recursively; `allowed` maps key -> sub-schema/None."""
    for key, value in doc.items():
        here = f"{path}.{key}" if path else key
        if key not in allowed:
            raise ConfigError(f"unknown config key: {here}")
        sub = allowed[key]
        if isinstance(sub, dict) and isinstance(value, dict):
            validate_keys(value, sub, here)
