import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evadapt.events import (EventFormatError, EventStream, normalize_volume,
                            read_events, voxelize, write_events)

EMPTY = EventStream([], [], [], [])


def random_stream(rng, n, H, W, t_max):
    return EventStream(np.sort(rng.integers(0, t_max + 1, n)),
                       rng.integers(0, W, n), rng.integers(0, H, n),
                       rng.choice([-1, 1], n))


class TestEventStream:
    def test_arrays_are_int64(self):
        s = EventStream([3], np.array([1], np.int32), [2], [-1])
        assert all(a.dtype == np.int64 for a in (s.t, s.x, s.y, s.p))
        assert len(s) == 1 and len(EMPTY) == 0

    @pytest.mark.parametrize("p", [0, 2, -2])
    def test_polarity_outside_plus_minus_one_rejected(self, p):
        # a p = 0 once reached the file as 0 and read back as -1, and a
        # p = 2 as +1, while signed voxelize weighted by the raw p
        with pytest.raises(ValueError, match=rf"event 2: polarity {p} "):
            EventStream([1, 2, 3, 4], [0] * 4, [0] * 4, [1, -1, p, 1])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="event 2: y has 2 entries"):
            EventStream([1, 2, 3], [0, 0, 0], [0, 0], [1, 1, 1])

    @pytest.mark.parametrize("bad", [np.array([1.0]), np.array([True]),
                                     np.array([2 ** 63], dtype=np.uint64),
                                     np.array([[1]])])
    def test_non_integer_arrays_rejected(self, bad):
        with pytest.raises(ValueError, match="event 0: x is not a 1-d"):
            EventStream([1], bad, [0], [1])

    def test_value_equality_and_rows(self):
        a = EventStream([1, 2], [3, 4], [5, 6], [1, -1])
        assert a == EventStream([1, 2], [3, 4], [5, 6], [1, -1])
        assert a != EventStream([1, 2], [3, 4], [5, 6], [1, 1])
        assert [tuple(e) for e in a] == [(1, 3, 5, 1), (2, 4, 6, -1)]
        assert a[1].p == -1 and a[-1:] == [(2, 4, 6, -1)]


class TestVoxelize:
    def test_empty_stream(self):
        v = voxelize(EMPTY, (0, 1000), 4, 4, B=3)
        assert v.grid.shape == (4, 4, 3)
        assert v.grid.sum() == 0

    def test_single_event_midpoint_bin(self):
        # midpoint of a 40 ms window with B=3 lands in bin 1
        e = EventStream([20_000], [3], [5], [1])
        v = voxelize(e, (0, 40_000), 8, 8, B=3)
        assert v.grid[5, 3, 1] == 1.0
        assert v.grid.sum() == 1.0

    def test_right_edge_clamped(self):
        e = EventStream([40_000], [0], [0], [1])
        v = voxelize(e, (0, 40_000), 2, 2, B=3)
        assert v.grid[0, 0, 2] == 1.0

    def test_out_of_window_skipped(self):
        es = EventStream([10, 999_999], [0, 0], [0, 0], [1, 1])
        v = voxelize(es, (100, 1000), 2, 2)
        assert v.grid.sum() == 0

    def test_empty_window_error(self):
        with pytest.raises(ValueError, match="window"):
            voxelize(EMPTY, (10, 10), 2, 2)

    @pytest.mark.parametrize("x,y", [(-1, 0), (4, 0), (0, 3)])
    def test_out_of_grid_event_rejected(self, x, y):
        # a 3x4 grid: negative x, x == W and y == H; the bad event is third
        es = EventStream([1, 99, 2], [0, -5, x], [0, 9, y], [1, 1, 1])
        with pytest.raises(EventFormatError, match=r"event 2: .*3x4"):
            voxelize(es, (0, 10), 3, 4)

    def test_out_of_window_event_not_bounds_checked(self):
        es = EventStream([99, 1], [-1, 1], [7, 1], [1, 1])
        assert voxelize(es, (0, 10), 2, 2).grid.sum() == 1

    def test_signed_accumulation(self):
        es = EventStream([1, 2], [0, 0], [0, 0], [1, -1])
        v = voxelize(es, (0, 10), 1, 1, B=1, signed=True)
        assert v.grid[0, 0, 0] == 0.0

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("H, W", [(10 ** 20, 4), (2 ** 29, 2 ** 29)])
    def test_grid_too_large_named(self, H, W, signed):
        # at least 2**60 bytes, so numpy refuses it before allocating; it
        # raised an OverflowError or a MemoryError
        es = EventStream([1], [1], [1], [1])
        with pytest.raises(ValueError, match=f"^the {H}x{W} grid of 3 bins "
                                             f"is too large to hold$"):
            voxelize(es, (0, 10), H, W, signed=signed)

    @pytest.mark.parametrize("W, B", [(10 ** 20, 3), (4, 10 ** 20)])
    def test_bin_arithmetic_too_large_named(self, W, B):
        # a width or bin count past int64 raised "Python int too large to
        # convert to C long" in the bin and cell arithmetic, an
        # OverflowError before the grid's own guard
        es = EventStream([1], [1], [1], [1])
        with pytest.raises(ValueError, match=f"^the 4x{W} grid of {B} bins "
                                             f"is too large to hold$"):
            voxelize(es, (0, 10), 4, W, B=B)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 200))
    def test_count_conservation(self, seed, n):
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, n, 6, 6, 40_000)
        v = voxelize(stream, (0, 40_000), 6, 6, B=3)
        assert v.grid.sum() == n

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        stream = random_stream(rng, 100, 6, 6, 40_000)
        v1 = voxelize(stream, (0, 40_000), 6, 6, B=3)
        off = 123_456
        shifted = EventStream(stream.t + off, stream.x, stream.y, stream.p)
        v2 = voxelize(shifted, (off, 40_000 + off), 6, 6, B=3)
        assert np.array_equal(v1.grid, v2.grid)

    def test_bin_repartition_preserves_marginals(self):
        rng = np.random.default_rng(9)
        stream = random_stream(rng, 300, 5, 5, 40_000)
        v3 = voxelize(stream, (0, 40_000), 5, 5, B=3)
        v7 = voxelize(stream, (0, 40_000), 5, 5, B=7)
        assert np.array_equal(v3.grid.sum(axis=2), v7.grid.sum(axis=2))


class TestNormalize:
    def test_all_zero_stays_zero(self):
        v = voxelize(EMPTY, (0, 10), 2, 2, B=2)
        assert normalize_volume(v).grid.sum() == 0

    def test_single_cell(self):
        v = voxelize(EventStream([1] * 4, [0] * 4, [0] * 4, [1] * 4), (0, 10),
                     2, 2, B=1)
        n = normalize_volume(v)
        assert n.grid[0, 0, 0] == 1.0
        assert n.grid.sum() == 1.0

    def test_channel_scaling(self):
        es = EventStream([0, 1, 1, 2, 2, 2, 2], [0, 1, 1, 0, 0, 0, 0],
                         [0, 0, 0, 1, 1, 1, 1], [1] * 7)
        v = voxelize(es, (0, 10), 2, 2, B=1)
        n = normalize_volume(v)
        assert np.allclose(sorted(n.grid.ravel())[-3:], [0.25, 0.5, 1.0])


class TestReadEvents:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("# H=8 W=8\n1000,3,5,1\n")
        events, dims = read_events(p)
        assert events == EventStream([1000], [3], [5], [1])
        assert dims == (8, 8)

    def test_zero_polarity_maps_to_minus(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1000,3,5,0\n")
        events, _ = read_events(p)
        assert events.p.tolist() == [-1]

    def test_decreasing_timestamp_reports_line(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("5,0,0,1\n3,0,0,1\n")
        with pytest.raises(EventFormatError, match="line 2"):
            read_events(p)

    def test_out_of_bounds_with_header(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("# H=4 W=4\n1,9,0,1\n")
        with pytest.raises(EventFormatError, match="out of bounds"):
            read_events(p)

    @pytest.mark.parametrize("text", ["5,3,3,1\n# H=4 W=4\n6,0,0,1\n",
                                      "# H=4 W=4\n# H=8 W=8\n5,6,6,1\n"])
    def test_late_or_second_header_rejected(self, tmp_path, text):
        # events read before a late header would escape its bounds check
        p = tmp_path / "e.txt"
        p.write_text(text)
        with pytest.raises(EventFormatError, match="line 2"):
            read_events(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1,2,3\n")
        with pytest.raises(EventFormatError, match="line 1"):
            read_events(p)

    @pytest.mark.parametrize("text,line,what", [
        (f"1,0,0,1\n{2 ** 63},0,0,1\n", 2, "integer field out of int64"),
        (f"1,0,0,1\n3,{-2 ** 63 - 1},0,1\n", 2, "integer field out of int64"),
        # int() rejecting a field comes first on the same line, but not
        # on a later one
        (f"1,0,0,1\n{2 ** 64},0,x,1\n", 2, "non-integer field"),
        (f"{2 ** 64},0,0,1\n1,0,x,1\n", 1, "integer field out of int64"),
        (f"1,0,x,1\n{2 ** 64},0,0,1\n", 1, "non-integer field"),
        ("1,0,0,1\n0,0,0,1\n1,0,x,1\n", 2, "decreasing timestamp 0 < 1")])
    def test_first_unparsable_line_reported(self, tmp_path, text, line, what):
        # the reference parser stops at the first bad line; a value beyond
        # int64 is a parse failure here, as the stream holds int64
        p = tmp_path / "e.txt"
        p.write_text(text)
        with pytest.raises(EventFormatError, match=f"line {line}: {what}"):
            read_events(p)

    @pytest.mark.parametrize("body", ["", "1,0,0,1\n", "1,+0,0,1\n"])
    def test_header_beyond_int_digit_limit_names_line(self, tmp_path, body):
        # int() refuses more than 4300 digits with a plain ValueError that
        # named no line; after it no rows, rows numpy reads, rows only
        # int() reads
        p = tmp_path / "e.txt"
        p.write_text(f"# H={'9' * 5000} W=4\n{body}")
        with pytest.raises(EventFormatError,
                           match="^line 1: header dimension has too many "
                                 "digits$"):
            read_events(p)

    def test_first_bad_line_and_first_failed_check(self, tmp_path):
        # line 3 fails polarity and sign, line 4 the field count: the
        # earliest line wins, and on it the earlier check
        p = tmp_path / "e.txt"
        p.write_text("# H=4 W=4\n1,0,0,1\n-5,9,0,2\n1,2\n")
        with pytest.raises(EventFormatError,
                           match="line 3: polarity must be 0 or 1"):
            read_events(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("")
        assert read_events(p) == (EMPTY, None)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        stream = random_stream(rng, 50, 4, 4, 9999)
        p = tmp_path / "e.txt"
        write_events(p, stream, dims=(4, 4))
        got, dims = read_events(p)
        assert got == stream
        assert dims == (4, 4)
