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
import itertools
import json
import math
import numbers
import operator
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
                raise DumpFormatError(f"unknown dtype code {code} of '{name}'")
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
    n, size = len(masks), shape[0] * shape[1]
    body = ""
    if n:  # an empty set needs no stack, whatever its grid
        # every row between two clear cells, so each run's start and end
        # edges fall inside its own row of the flat stack
        cells = np.zeros((n, size + 2), dtype=bool)
        cells[:, 1:-1] = np.asarray(masks, dtype=bool).reshape(n, size)
        flat = cells.ravel()
        edges = np.flatnonzero(flat[1:] != flat[:-1])
        starts, ends = edges[0::2], edges[1::2]
        rows = starts // (size + 2)
        runs = np.stack([starts - rows * (size + 2), ends - starts], axis=1)
        # one format for the file, so each run is formatted in one pass
        fmt = "".join(f"{mid}: " + " ".join(["%d,%d"] * k) + "\n" for mid, k
                      in zip(ids, np.bincount(rows, minlength=n).tolist()))
        body = fmt % tuple(runs.ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# H={shape[0]} W={shape[1]}\n{body}")


def read_masks(path) -> tuple[np.ndarray, list[int], tuple[int, int]]:
    """Parse an RLE mask file into one (n, H, W) bool array, its ids and
    its (H, W) grid; an empty set reads as a (0, H, W) array. Errors raise
    DumpFormatError naming the line.

    Each line is parsed and checked in turn, so the first bad line in the
    file is the one named.
    """
    shape = None
    lines = {}  # id -> the line that gave it
    fields, counts = [], []  # every run's start and length; runs per line
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
            header, size = lineno, shape[0] * shape[1]
            continue
        if shape is None:
            raise DumpFormatError("mask file missing '# H=.. W=..' header")
        head, _, body = line.partition(":")
        runs = body.split()
        try:
            mid = int(head)
            vals = list(map(int, ",".join(runs).split(","))) if runs else []
        except ValueError:
            raise DumpFormatError(
                f"line {lineno}: expected 'id: start,len ...'") from None
        if mid in lines:
            raise DumpFormatError(
                f"line {lineno}: mask id {mid} repeats line {lines[mid]}")
        if not lines:
            _grid(shape, header, 1)  # a grid too large fails here
        # the line's runs at once; only a line that fails is walked run by
        # run, to name its first bad run
        starts, lengths = vals[0::2], vals[1::2]
        if runs and (set(map(str.count, runs, itertools.repeat(","))) != {1}
                     or min(starts) < 0 or min(lengths) < 1
                     or max(map(operator.add, starts, lengths)) > size):
            for run in runs:
                run = list(map(int, run.split(",")))
                if len(run) != 2 or run[0] < 0 or run[1] < 1 or \
                        sum(run) > size:
                    raise DumpFormatError(
                        f"line {lineno}: run {run} is not a nonempty "
                        f"start,len inside the {shape[0]}x{shape[1]} grid")
        lines[mid] = lineno
        fields += vals
        counts.append(len(runs))
    if shape is None:
        raise DumpFormatError("empty mask file")
    cells = _grid(shape, header, len(lines))
    starts, lengths = np.array(fields, dtype=np.int64).reshape(-1, 2).T
    # runs as stretches of the flat stack, overlapping ones merged, so the
    # index below holds each set cell once however the runs overlap
    firsts = np.repeat(np.arange(len(lines)), counts) * cells.shape[1] + starts
    order = np.argsort(firsts, kind="stable")
    firsts, ends = firsts[order], (firsts + lengths)[order]
    reach = np.maximum.accumulate(ends)  # the furthest end so far
    opens = np.flatnonzero(firsts > np.r_[-1, reach[:-1]])
    firsts, lengths = (firsts[opens],
                       np.maximum.reduceat(ends, opens) - firsts[opens])
    # each stretch's cells: one count over all of them, shifted from where
    # the stretch starts in the count to its first cell
    shift = firsts - (np.cumsum(lengths) - lengths)
    cells.ravel()[np.arange(lengths.sum()) + np.repeat(shift, lengths)] = True
    return cells.reshape(len(lines), *shape), list(lines), shape


def _grid(shape, header: int, n: int) -> np.ndarray:
    """A clear (n, H * W) stack, or the error naming the header line."""
    try:
        return np.zeros((n, shape[0] * shape[1]), dtype=bool)
    except (ValueError, MemoryError):  # numpy cannot hold it
        raise DumpFormatError(f"line {header}: the {shape[0]}x{shape[1]} grid "
                              "is too large to hold") from None


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
