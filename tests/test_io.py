import math
import re
import struct
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from evadapt import synth
from evadapt.events import (EventFormatError, EventStream, read_events,
                            write_events)
from evadapt.io import (MAGIC, ConfigError, DumpFormatError, from_doc,
                        read_dump, read_masks, write_dump, write_masks)
from evadapt.metrics import MaskSet


def raw_dump(meta: bytes = b"", entries=(), tail: bytes = b"") -> bytes:
    """Dump bytes built part by part; entries are (name bytes, dims) of
    float64 zeros."""
    out = MAGIC + struct.pack("<HI", 1, len(meta)) + meta
    out += struct.pack("<I", len(entries))
    for name, dims in entries:
        out += struct.pack("<H", len(name)) + name
        out += struct.pack(f"<BB{len(dims)}Q", 1, len(dims), *dims)
        out += bytes(8 * math.prod(dims))
    return out + tail


class TestTensorDump:
    def test_round_trip_both_dtypes(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a": rng.random((3, 4)),
            "b": rng.random((2, 2, 2)).astype(np.float32),
            "scalar": np.array(3.5),
        }
        p = tmp_path / "d.evdt"
        write_dump(p, tensors, meta={"k": [1, 2], "s": "x"})
        got, meta = read_dump(p)
        assert meta == {"k": [1, 2], "s": "x"}
        assert set(got) == set(tensors)
        for name in tensors:
            assert got[name].dtype == tensors[name].dtype
            assert np.array_equal(got[name], tensors[name])

    def test_bitwise_stable_payload(self, tmp_path):
        x = {"t": np.random.default_rng(1).random((5, 5))}
        p1, p2 = tmp_path / "1.evdt", tmp_path / "2.evdt"
        write_dump(p1, x)
        write_dump(p2, x)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_meta(self, tmp_path):
        p = tmp_path / "d.evdt"
        write_dump(p, {"x": np.zeros(2)})
        _, meta = read_dump(p)
        assert meta == {}

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.evdt"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DumpFormatError, match="magic"):
            read_dump(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "d.evdt"
        write_dump(p, {"x": np.zeros(2)})
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(DumpFormatError, match="version"):
            read_dump(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "d.evdt"
        write_dump(p, {"x": np.arange(8.0)})
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(DumpFormatError, match="truncated"):
            read_dump(p)

    def test_seven_byte_file(self, tmp_path):
        p = tmp_path / "d.evdt"
        write_dump(p, {"x": np.zeros(2)})
        p.write_bytes(p.read_bytes()[:7])
        with pytest.raises(DumpFormatError, match="truncated header"):
            read_dump(p)

    def test_dims_beyond_file_end(self, tmp_path):
        # a corrupt dim must not make the reader ask for 2**64 bytes
        p = tmp_path / "d.evdt"
        write_dump(p, {"x": np.zeros(2)})
        raw = bytearray(p.read_bytes())
        raw[-24:-16] = b"\xff" * 8
        p.write_bytes(bytes(raw))
        with pytest.raises(DumpFormatError, match="truncated payload"):
            read_dump(p)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.sampled_from([np.float32, np.float64]),
                              st.lists(st.integers(0, 3), max_size=3)),
                    max_size=3),
           st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
           st.data())
    def test_any_prefix_raises_only_format_error(self, tmp_path, entries,
                                                 meta, data):
        p = tmp_path / "d.evdt"
        write_dump(p, {f"t{i}é": np.ones(dims, dtype)
                       for i, (dtype, dims) in enumerate(entries)}, meta=meta)
        raw = p.read_bytes()
        cut = data.draw(st.integers(0, len(raw)))
        p.write_bytes(raw[:cut])
        if cut == len(raw):
            assert len(read_dump(p)[0]) == len(entries)
        else:
            with pytest.raises(DumpFormatError):
                read_dump(p)

    @pytest.mark.parametrize("raw,match", [
        (raw_dump(meta=b"\xff{}"), "metadata"),
        (raw_dump(meta=b'{"a": '), "metadata"),
        (raw_dump(meta=b"[1, 2]"), "metadata is a JSON list"),
        (raw_dump(meta=b"[" * 100_000), "metadata"),
        (raw_dump(entries=[(b"\xff", (1,))]), "name of entry 0 is not UTF-8"),
        (raw_dump(entries=[(b"x", (1,)), (b"x", (2,))]), "entry 1 .*'x'"),
        (raw_dump(entries=[(b"x", (1,) * 65)]), "dims .* of 'x'"),
        (raw_dump(entries=[(b"x", (0, 2 ** 63))]), "dims .* of 'x'"),
        (raw_dump(entries=[(b"x", (1,))], tail=b"\0"), "1 bytes after"),
        # the dtype byte of entry 'w' set to 7: the error named no entry
        (raw_dump(entries=[(b"v", (1,)), (b"w", (1,))]).replace(
            b"w\x01\x01", b"w\x07\x01"), "^unknown dtype code 7 of 'w'$"),
    ], ids=["meta-not-utf8", "meta-not-json", "meta-not-object",
            "meta-too-deep", "name-not-utf8", "duplicate-name",
            "rank-65", "zero-size-too-big", "trailing-bytes",
            "unknown-dtype-code"])
    def test_malformed_dump_names_part(self, tmp_path, raw, match):
        p = tmp_path / "d.evdt"
        p.write_bytes(raw)
        with pytest.raises(DumpFormatError, match=match):
            read_dump(p)

    def test_raw_dump_builder_matches_writer(self, tmp_path):
        p = tmp_path / "d.evdt"
        write_dump(p, {"x": np.zeros((2, 1))}, meta={"k": 1})
        assert p.read_bytes() == raw_dump(b'{"k": 1}', [(b"x", (2, 1))])

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.sampled_from([np.float32, np.float64]),
                              st.lists(st.integers(0, 3), max_size=3)),
                    max_size=3),
           st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
           st.data())
    def test_mutated_dump_raises_only_format_error(self, tmp_path, entries,
                                                   meta, data):
        p = tmp_path / "d.evdt"
        write_dump(p, {f"t{i}é": np.ones(dims, dtype)
                       for i, (dtype, dims) in enumerate(entries)}, meta=meta)
        p.write_bytes(_mutate(data, p.read_bytes()))
        try:
            tensors, got_meta = read_dump(p)
        except DumpFormatError:
            return
        assert isinstance(got_meta, dict)
        assert all(t.dtype in (np.float32, np.float64)
                   for t in tensors.values())

    def test_integer_tensor_rejected(self, tmp_path):
        with pytest.raises(DumpFormatError, match="dtype"):
            write_dump(tmp_path / "d.evdt", {"x": np.arange(3)})


class TestMaskFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        masks = [rng.random((6, 7)) < 0.4 for _ in range(3)]
        p = tmp_path / "m.rle"
        write_masks(p, masks, ids=[4, 0, 2], shape=(6, 7))
        got, ids, shape = read_masks(p)
        assert shape == (6, 7)
        assert ids == [4, 0, 2]
        for a, b in zip(masks, got):
            assert np.array_equal(a, b)

    def test_read_returns_one_stack(self, tmp_path):
        # the masks came back as a list of row views, which MaskSet then
        # copied into a new stack
        masks = np.random.default_rng(3).random((3, 6, 7)) < 0.4
        p = tmp_path / "m.rle"
        write_masks(p, masks, ids=[4, 0, 2], shape=(6, 7))
        got, _, _ = read_masks(p)
        assert isinstance(got, np.ndarray) and got.dtype == bool
        assert got.shape == (3, 6, 7) and np.array_equal(got, masks)
        assert np.shares_memory(MaskSet(masks=got).masks, got)

    def test_empty_set_round_trips(self, tmp_path):
        # shape is required: without it an empty set used to be written
        # with no header, which read_masks rejects as an empty file
        p = tmp_path / "m.rle"
        with pytest.raises(TypeError):
            write_masks(p, [], [])
        write_masks(p, [], [], shape=(3, 5))
        masks, ids, shape = read_masks(p)
        # the (0, H, W) stack a nonempty set's form gives, not a list
        assert isinstance(masks, np.ndarray) and masks.dtype == bool
        assert masks.shape == (0, 3, 5) and ids == [] and shape == (3, 5)

    def test_known_encoding(self, tmp_path):
        m = np.zeros((2, 3), dtype=bool)
        m[0, 1] = m[0, 2] = m[1, 2] = True
        p = tmp_path / "m.rle"
        write_masks(p, [m], [0], m.shape)
        lines = p.read_text().splitlines()
        assert lines == ["# H=2 W=3", "0: 1,2 5,1"]

    @pytest.mark.parametrize("run", ["3,5", "3,2", "4,1", "-1,2", "1,0", "2,-1"])
    def test_run_outside_grid_names_line(self, tmp_path, run):
        p = tmp_path / "m.rle"
        p.write_text(f"# H=2 W=2\n0: 0,1\n1: {run}\n")
        with pytest.raises(DumpFormatError, match="line 3"):
            read_masks(p)

    def test_run_ending_at_grid_end_accepted(self, tmp_path):
        p = tmp_path / "m.rle"
        p.write_text("# H=2 W=2\n0: 3,1\n")
        masks, _, _ = read_masks(p)
        assert masks[0].sum() == 1 and masks[0][1, 1]

    @pytest.mark.parametrize("text", ["# H=0 W=3\n0:\n1:\n",
                                      "# H=2 W=0\n5: \n"])
    def test_zero_cell_grid(self, tmp_path, text):
        p = tmp_path / "m.rle"
        p.write_text(text)
        masks, ids, shape = read_masks(p)
        assert [m.shape for m in masks] == [shape] * len(ids)

    def test_overlapping_runs_held_once(self, tmp_path):
        # one full-grid run a thousand times over fills one mask; held run
        # by run, its cells would take a thousand masks' memory
        p = tmp_path / "m.rle"
        p.write_text("# H=100 W=100\n0:" + " 0,10000" * 1000 + "\n")
        tracemalloc.start()
        try:
            masks, _, _ = read_masks(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert masks[0].all()
        assert peak < 2e6

    def test_repeated_id_names_line(self, tmp_path):
        # two lines with one id used to be scored as two instances
        p = tmp_path / "m.rle"
        p.write_text("# H=2 W=2\n0: 0,1\n1: 1,1\n0: 2,1\n")
        with pytest.raises(DumpFormatError,
                           match="^line 4: mask id 0 repeats line 2$"):
            read_masks(p)

    @pytest.mark.parametrize("ids", [[3, 1, 3], [3, 1], [3, 1, 2, 0]])
    def test_write_rejects_ids_not_one_per_mask(self, tmp_path, ids):
        # fewer ids than masks used to drop the last masks silently
        p = tmp_path / "m.rle"
        with pytest.raises(ValueError, match="distinct, one per mask"):
            write_masks(p, [np.ones((2, 2), bool)] * 3, ids=ids,
                        shape=(2, 2))
        assert not p.exists()

    @pytest.mark.parametrize("mshape", [(3, 3), (1, 3), (4,), (2, 2, 1)])
    def test_write_rejects_mask_of_other_shape(self, tmp_path, mshape):
        # a (3, 3) mask under a 2x2 header wrote a run read_masks rejects,
        # and a (1, 3) one read back as another 2x2 mask
        p = tmp_path / "m.rle"
        masks = [np.ones((2, 2), bool), np.ones(mshape, bool)]
        with pytest.raises(ValueError, match="^" + re.escape(
                f"mask id 7: shape {mshape}, not the file's (2, 2)")):
            write_masks(p, masks, ids=[3, 7], shape=(2, 2))
        assert not p.exists()

    @pytest.mark.parametrize("mid", [True, np.bool_(False), 1.0, "1", None])
    def test_write_rejects_non_integer_id(self, tmp_path, mid):
        # id True wrote the line 'True: 0,4'
        p = tmp_path / "m.rle"
        with pytest.raises(ValueError, match="^" + re.escape(
                f"mask id {mid!r} is not an integer")):
            write_masks(p, [np.ones((2, 2), bool)], ids=[mid], shape=(2, 2))
        assert not p.exists()

    def test_write_takes_numpy_integer_ids(self, tmp_path):
        p = tmp_path / "m.rle"
        write_masks(p, [np.ones((2, 2), bool)], ids=[np.int64(5)],
                    shape=(2, 2))
        assert read_masks(p)[1] == [5]

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "m.rle"
        p.write_text("0: 1,2\n")
        with pytest.raises(DumpFormatError, match="header"):
            read_masks(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "m.rle"
        p.write_text("")
        with pytest.raises(DumpFormatError, match="empty"):
            read_masks(p)

    @pytest.mark.parametrize("body", ["", "0: 1,2\n"])
    def test_header_beyond_int_digit_limit_names_line(self, tmp_path, body):
        # int() refuses more than 4300 digits with a plain ValueError
        p = tmp_path / "m.rle"
        p.write_text(f"# H=2 W={'9' * 5000}\n{body}")
        with pytest.raises(DumpFormatError,
                           match="^line 1: header dimension has too many "
                                 "digits$"):
            read_masks(p)

    @pytest.mark.parametrize("H, W", [(10 ** 10, 10 ** 10),
                                      (2 ** 30, 2 ** 30)])
    def test_grid_too_large_names_header_line(self, tmp_path, H, W):
        # at least 2**60 cells, so numpy refuses it before allocating; it
        # raised "Maximum allowed dimension exceeded" or a MemoryError
        p = tmp_path / "m.rle"
        p.write_text(f"\n# H={H} W={W}\n0: 1,2\n")
        with pytest.raises(DumpFormatError,
                           match=f"^line 2: the {H}x{W} grid is too large "
                                 f"to hold$"):
            read_masks(p)

    def test_header_only_grid_past_index_names_header_line(self, tmp_path):
        # an empty set needs no cells, but its (0, H, W) stack still needs
        # an H * W numpy can index; it read as [] whatever the header said
        p = tmp_path / "m.rle"
        p.write_text(f"\n# H={10 ** 10} W={10 ** 10}\n")
        with pytest.raises(DumpFormatError,
                           match=f"^line 2: the {10 ** 10}x{10 ** 10} grid "
                                 f"is too large to hold$"):
            read_masks(p)
        p.write_text(f"# H={2 ** 30} W={2 ** 30}\n")  # indexable, no cell
        assert read_masks(p)[0].shape == (0, 2 ** 30, 2 ** 30)


# bytes the text formats give meaning to, plus any byte at all
_BYTES = st.sampled_from(list(b"0123456789,:#HW= -\n\r")) | st.integers(0, 255)


def _mutate(data, raw: bytes) -> bytes:
    """raw with up to four bytes replaced, deleted or inserted, then cut."""
    b = bytearray(raw)
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, len(b)))
        op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "insert" or i == len(b):
            b.insert(i, data.draw(_BYTES))
        elif op == "replace":
            b[i] = data.draw(_BYTES)
        else:
            del b[i]
    return bytes(b[:data.draw(st.integers(0, len(b)))])


class TestTextFormatFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 3), st.data())
    def test_mutated_masks_raise_only_format_error(self, tmp_path, H, W, n,
                                                    data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        p = tmp_path / "m.rle"
        write_masks(p, [rng.random((H, W)) < 0.5 for _ in range(n)],
                    list(range(n)), shape=(H, W))
        p.write_bytes(_mutate(data, p.read_bytes()))
        try:
            masks, ids, shape = read_masks(p)
        except DumpFormatError:
            return
        assert len(ids) == len(masks)
        assert all(m.shape == shape and m.dtype == bool for m in masks)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 3),
                              st.integers(0, 3), st.sampled_from([-1, 1])),
                    max_size=5),
           st.booleans(), st.data())
    def test_mutated_events_raise_only_format_error(self, tmp_path, rows,
                                                     header, data):
        p = tmp_path / "e.txt"
        cols = np.array(sorted(rows), dtype=np.int64).reshape(-1, 4).T
        write_events(p, EventStream(*cols), dims=(4, 4) if header else None)
        p.write_bytes(_mutate(data, p.read_bytes()))
        try:
            events, dims = read_events(p)
        except EventFormatError:
            return
        assert (np.diff(events.t) >= 0).all() and (events.t >= 0).all()
        assert np.isin(events.p, [-1, 1]).all()
        if dims is not None:
            assert ((0 <= events.x) & (events.x < dims[1])
                    & (0 <= events.y) & (events.y < dims[0])).all()


class TestEventReaders:
    def test_well_formed_file_skips_int_per_field(self, tmp_path,
                                                  monkeypatch):
        # numpy's C reader takes it whole: the line reader never runs
        spec = synth.SceneSpec(noise_rate=0.01, seed=1, shapes=[synth.Shape(
            "disk", (9.0, 12.0), (5.0, 0.0), (0.5, 0.2))])
        stream = synth.generate_events(spec)
        p = tmp_path / "e.txt"
        write_events(p, stream, dims=(32, 32))

        def refuse(lines):
            raise AssertionError("the line reader ran")

        monkeypatch.setattr("evadapt.events._read_lines", refuse)
        assert len(stream) > 100
        assert read_events(p) == (stream, (32, 32))

    @pytest.mark.parametrize("field, value", [("+5", 5), ("1_0", 10),
                                              ("٣", 3)])
    def test_int_field_forms_read(self, tmp_path, field, value):
        p = tmp_path / "e.txt"
        p.write_text(f"1,2,3,1\n{field},2,3,0\n", encoding="utf-8")
        stream, dims = read_events(p)
        assert dims is None
        assert stream == EventStream(np.array([1, value]), np.array([2, 2]),
                                     np.array([3, 3]), np.array([1, -1]))


@dataclass
class Deep:
    deep: int = 0


@dataclass
class Nest:
    x: float = 0.0
    y: Deep = field(default_factory=Deep)


@dataclass
class Doc:
    a: int = 0
    nest: Nest = field(default_factory=Nest)
    pair: tuple[str, tuple[int, ...]] = ("k", ())
    nests: list[Nest] = field(default_factory=list)
    limit: int | None = None

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("a must be >= 0")


class TestConfigValidation:
    def test_valid_passes(self):
        got = from_doc(Doc, {"a": 1, "nest": {"x": 2, "y": {"deep": 3}},
                             "pair": ["m", [1, 2]], "nests": [{"x": 0.5}],
                             "limit": 4})
        assert got == Doc(a=1, nest=Nest(x=2.0, y=Deep(deep=3)),
                          pair=("m", (1, 2)), nests=[Nest(x=0.5)], limit=4)
        assert type(got.nest.x) is float
        assert from_doc(Doc, {"limit": None}).limit is None

    def test_unknown_top_level(self):
        with pytest.raises(ConfigError, match="unknown config key: b"):
            from_doc(Doc, {"b": 1})

    def test_unknown_nested_names_dotted_path(self):
        with pytest.raises(ConfigError, match="nest.y.wrong"):
            from_doc(Doc, {"nest": {"y": {"wrong": 1}}})

    @pytest.mark.parametrize("doc,where", [
        ({"a": True}, "a: expected int, got bool"),
        ({"a": 1.5}, "a: expected int, got float"),
        ({"nest": {"x": "abc"}}, "nest.x: expected float, got str"),
        ({"nest": [1]}, "nest: expected a mapping, got list"),
        ({"pair": "m"}, "pair: expected a list, got str"),
        ({"pair": ["m"]}, "pair: expected 2 items, got 1"),
        ({"pair": ["m", [1, "2"]]}, r"pair\[1\]\[1\]: expected int"),
        ({"nests": [{"y": {"deep": None}}]}, r"nests\[0\].y.deep: expected"),
        ({"limit": 2.0}, "limit: expected int"),
        ({"a": -1}, "a must be >= 0"),
    ])
    def test_mistyped_value_names_key(self, doc, where):
        with pytest.raises(ConfigError, match=where):
            from_doc(Doc, doc, "")

    def test_section_check_names_section(self):
        with pytest.raises(ConfigError, match=r"^run.a must be >= 0$"):
            from_doc(Doc, {"a": -1}, "run")
        with pytest.raises(ConfigError, match="^run: expected a mapping"):
            from_doc(Doc, 3, "run")
