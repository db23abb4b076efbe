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
"id: start,len start,len ...", each id on one line only.

Run configurations and checkpoint metadata are plain mappings that
`from_doc` turns into the dataclasses they describe.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import re
import struct
import types
import typing

import numpy as np

MAGIC = b"EVDT"
VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}
_MASK_HEADER = re.compile(r"#\s*H=(\d+)\s+W=(\d+)")


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
    """A dump's entries and metadata; malformed bytes raise DumpFormatError
    naming the part or entry."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            if n > size - fh.tell():
                raise DumpFormatError(f"truncated {what}")
            return fh.read(n)

        if fh.read(4) != MAGIC:
            raise DumpFormatError("bad magic bytes")
        version, meta_len = struct.unpack("<HI", read(6, "header"))
        if version != VERSION:
            raise DumpFormatError(f"unsupported version {version}")
        meta = _read_meta(read(meta_len, "metadata")) if meta_len else {}
        (count,) = struct.unpack("<I", read(4, "entry count"))
        tensors: dict[str, np.ndarray] = {}
        for i in range(count):
            (name_len,) = struct.unpack("<H", read(2, f"name of entry {i}"))
            try:
                name = read(name_len, f"name of entry {i}").decode()
            except UnicodeDecodeError:
                raise DumpFormatError(f"name of entry {i} is not UTF-8") \
                    from None
            if name in tensors:
                raise DumpFormatError(f"entry {i} repeats the name '{name}'")
            code, rank = struct.unpack("<BB", read(2, f"dtype of '{name}'"))
            if code not in _DTYPES:
                raise DumpFormatError(f"unknown dtype code {code}")
            dims = struct.unpack(f"<{rank}Q",
                                 read(8 * rank, f"dims of '{name}'"))
            dt = _DTYPES[code]
            payload = np.frombuffer(read(math.prod(dims) * dt.itemsize,
                                         f"payload for '{name}'"), dtype=dt)
            try:  # rank above numpy's limit, or a zero-size shape too big
                tensors[name] = payload.reshape(dims).copy()
            except ValueError as e:
                raise DumpFormatError(f"dims {dims} of '{name}': {e}") \
                    from None
        if fh.tell() != size:
            raise DumpFormatError(
                f"{size - fh.tell()} bytes after the last entry")
    return tensors, meta


def _read_meta(raw: bytes) -> dict:
    try:
        meta = json.loads(raw.decode())
    except (ValueError, RecursionError) as e:  # not UTF-8, or not JSON
        raise DumpFormatError(f"metadata: {e}") from None
    if not isinstance(meta, dict):
        raise DumpFormatError(
            f"metadata is a JSON {type(meta).__name__}, not an object")
    return meta


# -- RLE masks --------------------------------------------------------------

def write_masks(path, masks, ids, shape):
    """Write instance masks as row-major run-length text under the
    header of their (H, W) `shape`, one line per id.

    The ids must be distinct integers, one per mask, and every mask must
    have `shape`; otherwise ValueError names the id, before the file is
    created.
    """
    if len(set(ids)) != len(ids) or len(ids) != len(masks):
        raise ValueError("mask ids must be distinct, one per mask")
    for mid, mask in zip(ids, masks):
        if not isinstance(mid, numbers.Integral) or isinstance(mid, bool):
            raise ValueError(f"mask id {mid!r} is not an integer")
        if np.shape(mask) != tuple(shape):
            raise ValueError(f"mask id {mid}: shape {np.shape(mask)}, "
                             f"not the file's {tuple(shape)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# H={shape[0]} W={shape[1]}\n")
        for mid, mask in zip(ids, masks):
            flat = np.asarray(mask, dtype=bool).ravel()
            edges = np.flatnonzero(np.diff(flat, prepend=False, append=False))
            runs = " ".join(f"{i},{j - i}" for i, j in
                            zip(edges[0::2].tolist(), edges[1::2].tolist()))
            fh.write(f"{mid}: {runs}\n")


def read_masks(path) -> tuple[list[np.ndarray], list[int], tuple[int, int]]:
    """Parse an RLE mask file; errors raise DumpFormatError naming the line."""
    shape = None
    masks, lines = [], {}  # lines: id -> the line that gave it
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise DumpFormatError(f"byte {e.start}: not UTF-8") from None
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = _MASK_HEADER.fullmatch(line)
                if m is None or shape is not None:
                    raise DumpFormatError(
                        f"line {lineno}: expected one '# H=.. W=..' header")
                try:
                    shape = (int(m.group(1)), int(m.group(2)))
                except ValueError:  # beyond int()'s 4300-digit limit
                    raise DumpFormatError(f"line {lineno}: header dimension "
                                          "has too many digits") from None
                header = lineno
                continue
            if shape is None:
                raise DumpFormatError("mask file missing '# H=.. W=..' header")
            head, _, body = line.partition(":")
            try:
                mid = int(head)
                runs = [[int(v) for v in run.split(",")]
                        for run in body.split()]
            except ValueError:
                raise DumpFormatError(
                    f"line {lineno}: expected 'id: start,len ...'") from None
            if mid in lines:
                raise DumpFormatError(
                    f"line {lineno}: mask id {mid} repeats line {lines[mid]}")
            lines[mid] = lineno
            try:
                flat = np.zeros(shape[0] * shape[1], dtype=bool)
            except (ValueError, MemoryError):  # numpy cannot hold it
                raise DumpFormatError(
                    f"line {header}: the {shape[0]}x{shape[1]} grid is too "
                    "large to hold") from None
            for run in runs:
                if (len(run) != 2 or run[0] < 0 or run[1] < 1
                        or sum(run) > flat.size):
                    raise DumpFormatError(
                        f"line {lineno}: run {run} is not a nonempty start,len "
                        f"inside the {shape[0]}x{shape[1]} grid")
                flat[run[0]:sum(run)] = True
            masks.append(flat.reshape(shape))
    if shape is None:
        raise DumpFormatError("empty mask file")
    return masks, list(lines), shape


# -- run configuration ------------------------------------------------------

class ConfigError(ValueError):
    pass


def from_doc(cls, doc, where: str = ""):
    """Build dataclass `cls` from the mapping `doc` found at dotted `where`.

    The init fields are the allowed keys and their annotations the types.
    Every error, the class's own ValueError/TypeError too, names the key.
    """
    if not isinstance(doc, dict):
        raise _mistyped(where or "config", "a mapping", doc)
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    kwargs = {}
    for key, value in doc.items():
        here = f"{where}.{key}" if where else str(key)
        if key not in names:
            raise ConfigError(f"unknown config key: {here}")
        kwargs[key] = _convert(hints[key], value, here)
    try:
        return cls(**kwargs)
    except ConfigError:  # a check that names its own key
        raise
    except (TypeError, ValueError) as e:
        # "epochs must be >= 1" from section train -> "train.epochs must ..."
        sep = "." if where and str(e).split(" ")[0] in names else ": "
        raise ConfigError(f"{where or 'config'}{sep}{e}") from None


def _convert(tp, value, where: str):
    """`value` as a `tp`: lists become tuples, mappings dataclasses, and an
    int is taken where a float belongs (but a bool is not an int)."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        return None if value is None else _convert(args[0], value, where)
    if dataclasses.is_dataclass(tp):
        return from_doc(tp, value, where)
    if origin not in (tuple, list):
        if tp is float and type(value) is int:
            return float(value)
        if type(value) is not tp:
            raise _mistyped(where, tp.__name__, value)
        return value
    if not isinstance(value, (list, tuple)):
        raise _mistyped(where, "a list", value)
    if origin is list or args[-1] is Ellipsis:
        args = args[:1] * len(value)
    elif len(args) != len(value):
        raise ConfigError(f"{where}: expected {len(args)} items, "
                          f"got {len(value)}")
    items = [_convert(t, v, f"{where}[{i}]")
             for i, (t, v) in enumerate(zip(args, value))]
    return items if origin is list else tuple(items)


def _mistyped(where: str, expected: str, value) -> ConfigError:
    return ConfigError(f"{where}: expected {expected}, "
                       f"got {type(value).__name__}")
