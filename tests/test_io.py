import numpy as np
import pytest

from evadapt.io import (ConfigError, DumpFormatError, read_dump, read_masks,
                        validate_keys, write_dump, write_masks)


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

    def test_integer_tensor_rejected(self, tmp_path):
        with pytest.raises(DumpFormatError, match="dtype"):
            write_dump(tmp_path / "d.evdt", {"x": np.arange(3)})


class TestMaskFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        masks = [rng.random((6, 7)) < 0.4 for _ in range(3)]
        p = tmp_path / "m.rle"
        write_masks(p, masks, ids=[4, 0, 2])
        got, ids, shape = read_masks(p)
        assert shape == (6, 7)
        assert ids == [4, 0, 2]
        for a, b in zip(masks, got):
            assert np.array_equal(a, b)

    def test_known_encoding(self, tmp_path):
        m = np.zeros((2, 3), dtype=bool)
        m[0, 1] = m[0, 2] = m[1, 2] = True
        p = tmp_path / "m.rle"
        write_masks(p, [m])
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


class TestConfigValidation:
    SCHEMA = {"a": None, "nest": {"x": None, "y": {"deep": None}}}

    def test_valid_passes(self):
        validate_keys({"a": 1, "nest": {"x": 2, "y": {"deep": 3}}}, self.SCHEMA)

    def test_unknown_top_level(self):
        with pytest.raises(ConfigError, match="unknown config key: b"):
            validate_keys({"b": 1}, self.SCHEMA)

    def test_unknown_nested_names_dotted_path(self):
        with pytest.raises(ConfigError, match="nest.y.wrong"):
            validate_keys({"nest": {"y": {"wrong": 1}}}, self.SCHEMA)
