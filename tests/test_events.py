import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evadapt.events import (Event, EventFormatError, normalize_volume,
                            read_events, voxelize, write_events)


def random_stream(rng, n, H, W, t_max):
    ts = np.sort(rng.integers(0, t_max + 1, n))
    return [Event(t=int(ts[i]), x=int(rng.integers(0, W)),
                  y=int(rng.integers(0, H)),
                  p=int(rng.choice([-1, 1]))) for i in range(n)]


class TestVoxelize:
    def test_empty_stream(self):
        v = voxelize([], (0, 1000), 4, 4, B=3)
        assert v.grid.shape == (4, 4, 3)
        assert v.grid.sum() == 0

    def test_single_event_midpoint_bin(self):
        # midpoint of a 40 ms window with B=3 lands in bin 1
        e = Event(t=20_000, x=3, y=5, p=1)
        v = voxelize([e], (0, 40_000), 8, 8, B=3)
        assert v.grid[5, 3, 1] == 1.0
        assert v.grid.sum() == 1.0

    def test_right_edge_clamped(self):
        e = Event(t=40_000, x=0, y=0, p=1)
        v = voxelize([e], (0, 40_000), 2, 2, B=3)
        assert v.grid[0, 0, 2] == 1.0

    def test_out_of_window_skipped(self):
        es = [Event(t=10, x=0, y=0, p=1), Event(t=999_999, x=0, y=0, p=1)]
        v = voxelize(es, (100, 1000), 2, 2)
        assert v.grid.sum() == 0

    def test_empty_window_error(self):
        with pytest.raises(ValueError, match="window"):
            voxelize([], (10, 10), 2, 2)

    @pytest.mark.parametrize("x,y", [(-1, 0), (4, 0), (0, 3)])
    def test_out_of_grid_event_rejected(self, x, y):
        # a 3x4 grid: negative x, x == W and y == H; the bad event is third
        es = [Event(t=1, x=0, y=0, p=1), Event(t=99, x=-5, y=9, p=1),
              Event(t=2, x=x, y=y, p=1)]
        with pytest.raises(EventFormatError, match=r"event 2: .*3x4"):
            voxelize(es, (0, 10), 3, 4)

    def test_out_of_window_event_not_bounds_checked(self):
        es = [Event(t=99, x=-1, y=7, p=1), Event(t=1, x=1, y=1, p=1)]
        assert voxelize(es, (0, 10), 2, 2).grid.sum() == 1

    def test_signed_accumulation(self):
        es = [Event(t=1, x=0, y=0, p=1), Event(t=2, x=0, y=0, p=-1)]
        v = voxelize(es, (0, 10), 1, 1, B=1, signed=True)
        assert v.grid[0, 0, 0] == 0.0

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
        shifted = [Event(t=e.t + off, x=e.x, y=e.y, p=e.p) for e in stream]
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
        v = voxelize([], (0, 10), 2, 2, B=2)
        assert normalize_volume(v).grid.sum() == 0

    def test_single_cell(self):
        v = voxelize([Event(t=1, x=0, y=0, p=1)] * 4, (0, 10), 2, 2, B=1)
        n = normalize_volume(v)
        assert n.grid[0, 0, 0] == 1.0
        assert n.grid.sum() == 1.0

    def test_channel_scaling(self):
        es = ([Event(t=0, x=0, y=0, p=1)]
              + [Event(t=1, x=1, y=0, p=1)] * 2
              + [Event(t=2, x=0, y=1, p=1)] * 4)
        v = voxelize(es, (0, 10), 2, 2, B=1)
        n = normalize_volume(v)
        assert np.allclose(sorted(n.grid.ravel())[-3:], [0.25, 0.5, 1.0])


class TestReadEvents:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("# H=8 W=8\n1000,3,5,1\n")
        events, dims = read_events(p)
        assert events == [Event(t=1000, x=3, y=5, p=1)]
        assert dims == (8, 8)

    def test_zero_polarity_maps_to_minus(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1000,3,5,0\n")
        events, _ = read_events(p)
        assert events[0].p == -1

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

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        stream = random_stream(rng, 50, 4, 4, 9999)
        p = tmp_path / "e.txt"
        write_events(p, stream, dims=(4, 4))
        got, dims = read_events(p)
        assert got == stream
        assert dims == (4, 4)
