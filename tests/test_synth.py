import dataclasses
import re

import numpy as np
import pytest

from evadapt.events import voxelize
from evadapt.synth import (SceneSpec, Shape, generate_events,
                           ground_truth_masks, render_frame)


def simple_scene(**kw):
    defaults = dict(
        height=16, width=16,
        shapes=[Shape(kind="rectangle", position=(5.0, 8.0),
                      size=(6.0, 6.0), velocity=(0.15, 0.0), intensity=1.0)],
        background=0.1, window_ms=40.0, threshold=0.15)
    defaults.update(kw)
    return SceneSpec(**defaults)


class TestRenderFrame:
    def test_shape_and_range(self):
        f = render_frame(simple_scene(), 0.0)
        assert f.shape == (16, 16, 3)
        assert f.min() == pytest.approx(0.1)
        assert f.max() == pytest.approx(1.0)

    def test_channels_identical(self):
        f = render_frame(simple_scene(), 10.0)
        assert np.array_equal(f[:, :, 0], f[:, :, 1])
        assert np.array_equal(f[:, :, 0], f[:, :, 2])

    def test_shape_moves(self):
        spec = simple_scene()
        f0 = render_frame(spec, 0.0)
        f1 = render_frame(spec, 40.0)
        assert not np.array_equal(f0, f1)
        # 0.15 px/ms over 40 ms shifts the rectangle 6 px to the right
        assert np.array_equal(f1[:, 6:, 0], f0[:, :-6, 0])

    def test_time_out_of_window(self):
        with pytest.raises(ValueError, match="window"):
            render_frame(simple_scene(), 41.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            Shape(kind="triangle", position=(4, 4), size=(2, 2))
        # a shape is frozen, so no unknown kind can reach the renderer
        shape = simple_scene().shapes[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            shape.kind = "triangle"
        with pytest.raises(ValueError, match="kind must be one of"):
            dataclasses.replace(shape, kind="triangle")

    @pytest.mark.parametrize("field", ["position", "size", "velocity"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_geometry_rejected(self, field, bad):
        kw = dict(kind="rectangle", position=(4.0, 4.0), size=(2.0, 2.0),
                  velocity=(0.0, 0.0))
        kw[field] = (bad, 3.0)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            Shape(**kw)

    def test_disk_footprint(self):
        spec = simple_scene(shapes=[Shape(kind="disk", position=(8.0, 8.0),
                                          size=(3.0, 0.0))])
        f = render_frame(spec, 0.0)
        assert f[8, 8, 0] == 1.0
        assert f[8, 11, 0] == 1.0   # radius inclusive
        assert f[8, 12, 0] == pytest.approx(0.1)


class TestGroundTruthMasks:
    def test_single_shape(self):
        ms = ground_truth_masks(simple_scene(), 0.0)
        assert len(ms) == 1
        want = render_frame(simple_scene(), 0.0)[:, :, 0] == 1.0
        assert np.array_equal(ms.masks[0], want)

    def test_occlusion_order(self):
        spec = simple_scene(shapes=[
            Shape(kind="rectangle", position=(8.0, 8.0), size=(8.0, 8.0)),
            Shape(kind="rectangle", position=(8.0, 8.0), size=(4.0, 4.0)),
        ])
        ms = ground_truth_masks(spec, 0.0)
        assert len(ms) == 2
        # the earlier shape loses the cells the later one covers
        assert not (ms.masks[0] & ms.masks[1]).any()
        assert ms.masks[1].sum() == 25  # 5x5 inclusive footprint
        assert ms.masks[0].sum() == 81 - 25

    def test_fully_occluded_dropped(self):
        spec = simple_scene(shapes=[
            Shape(kind="rectangle", position=(8.0, 8.0), size=(2.0, 2.0)),
            Shape(kind="rectangle", position=(8.0, 8.0), size=(8.0, 8.0)),
        ])
        ms = ground_truth_masks(spec, 0.0)
        assert len(ms) == 1
        assert ms.ids == [1]


class TestGenerateEvents:
    def test_static_scene_silent(self):
        spec = simple_scene(shapes=[Shape(kind="rectangle",
                                          position=(8.0, 8.0),
                                          size=(6.0, 6.0),
                                          velocity=(0.0, 0.0))])
        assert len(generate_events(spec)) == 0

    def test_moving_scene_fires(self):
        events = generate_events(simple_scene())
        assert len(events) > 0
        assert np.isin(events.p, [-1, 1]).all()

    def test_sorted_and_in_window(self):
        # a window that is no whole number of simulation steps ends
        # between steps; no event may fall past its end
        for window_ms in (40.0, 6.6):
            spec = simple_scene(window_ms=window_ms)
            ts = generate_events(spec).t
            assert ts.size and (np.diff(ts) >= 0).all()
            assert 0 <= ts[0] and ts[-1] <= int(spec.window_ms * 1000)

    def test_events_localized_at_moving_edge(self):
        events = generate_events(simple_scene())
        # the rectangle occupies rows 5..11; events stay on its rows
        assert ((5 <= events.y) & (events.y <= 11)).all()

    def test_polarity_signs_balance_on_translation(self):
        # a translating bright shape brightens its leading edge (+) and
        # darkens its trailing edge (-)
        events = generate_events(simple_scene())
        pos = np.count_nonzero(events.p == 1)
        neg = len(events) - pos
        assert pos > 0 and neg > 0
        assert abs(pos - neg) <= 0.1 * len(events)

    def test_threshold_monotone(self):
        lo = generate_events(simple_scene(threshold=0.1))
        hi = generate_events(simple_scene(threshold=0.4))
        assert len(hi) <= len(lo)

    def test_noise_adds_events_deterministically(self):
        spec = simple_scene(noise_rate=0.002, seed=3)
        clean = generate_events(simple_scene())
        noisy1 = generate_events(spec)
        noisy2 = generate_events(spec)
        assert len(noisy1) > len(clean)
        assert noisy1 == noisy2

    def test_interpolated_times_not_grid_locked(self):
        events = generate_events(simple_scene())
        assert (events.t % 1000 != 0).any()

    def test_voxelizes_cleanly(self):
        spec = simple_scene()
        events = generate_events(spec)
        vol = voxelize(events, (0, int(spec.window_ms * 1000)),
                       spec.height, spec.width, B=3)
        assert vol.grid.sum() == len(events)

    @pytest.mark.parametrize("theta", [0.0, -0.1, float("nan")])
    def test_non_positive_threshold_rejected(self, theta):
        with pytest.raises(ValueError, match="threshold must be > 0"):
            simple_scene(threshold=theta)
        # a spec is frozen, so no such threshold can reach the simulator
        spec = simple_scene()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.threshold = theta
        with pytest.raises(ValueError, match="threshold must be > 0"):
            dataclasses.replace(spec, threshold=theta)

    @pytest.mark.parametrize("window_ms", [0.0, -1.0, float("inf"),
                                           float("nan")])
    def test_window_must_be_finite_and_positive(self, window_ms):
        with pytest.raises(ValueError,
                           match="window_ms must be finite and > 0"):
            simple_scene(window_ms=window_ms)

    @pytest.mark.parametrize("level", [float("inf"), -1.0])
    def test_infinite_log_intensity_rejected(self, level):
        with pytest.raises(ValueError, match="intensity must be finite"):
            Shape(kind="disk", position=(4, 4), size=(2, 2), intensity=level)
        with pytest.raises(ValueError, match="background must be finite"):
            simple_scene(background=level)
        # shapes and specs are frozen, so no such level can reach the
        # simulator
        spec = simple_scene()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.shapes[0].intensity = level
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.background = level
        with pytest.raises(ValueError, match="intensity must be finite"):
            dataclasses.replace(spec.shapes[0], intensity=level)
        with pytest.raises(ValueError, match="background must be finite"):
            dataclasses.replace(spec, background=level)

    def test_sort_key_overflow_rejected(self):
        # only the swept box is painted, so no (T, H, W) stack fails to
        # allocate first: the (t, y, x) key's range is checked when the
        # spec is built, and a built spec is frozen
        spec = simple_scene()
        for name in ("height", "width", "window_ms"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, 10 ** 6)
        with pytest.raises(ValueError, match="overflows the int64 event"):
            dataclasses.replace(spec, height=10 ** 5, width=10 ** 5,
                                window_ms=1e6)

    @pytest.mark.parametrize("H, W, window_ms", [
        (10 ** 5, 10 ** 5, 1e6), (2 ** 29, 2 ** 29, 40.0),
        (32, 32, float(2 ** 58)), (1, 2 ** 54, 1.0)])
    def test_sort_key_overflow_refused_at_build(self, H, W, window_ms):
        # such a scene was refused only by whichever allocation came first
        # in the work, or by generate_events after a frame was rendered
        with pytest.raises(ValueError, match=re.escape(
                f"a {H}x{W} grid over {window_ms} ms overflows the int64 "
                "event sort key")):
            SceneSpec(height=H, width=W, window_ms=window_ms)

    def test_largest_sort_key_builds(self):
        # (1000 window_ms + 1)·H·W == 2^63 is the last key range that fits
        SceneSpec(height=2 ** 26, width=2 ** 27, window_ms=1.0235)
