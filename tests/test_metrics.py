import numpy as np
import pytest

from evadapt.metrics import (MaskSet, _greedy_match, _overlap_table,
                             compute_report, iou, report_to_dict)


def mask(H, W, cells):
    m = np.zeros((H, W), dtype=bool)
    for y, x in cells:
        m[y, x] = True
    return m


def match(gt, pred):
    """The greedy (gt index, pred index, IoU) pairs compute_report uses."""
    return _greedy_match(*_overlap_table(gt, pred))


def unmatched(n, used):
    return [i for i in range(n) if i not in used]


def block(H, W, y0, x0, h, w):
    m = np.zeros((H, W), dtype=bool)
    m[y0:y0 + h, x0:x0 + w] = True
    return m


def random_mask_set(rng, H, W, n):
    masks = []
    for _ in range(n):
        m = rng.random((H, W)) < rng.uniform(0.1, 0.5)
        if not m.any():
            m[rng.integers(0, H), rng.integers(0, W)] = True
        masks.append(m)
    return MaskSet(masks=masks)


def greedy_oracle(gt, pred):
    """Step-verified greedy: re-sort and re-select one pair at a time."""
    remaining = [(g, p) for g in range(len(gt)) for p in range(len(pred))]
    pairs = []
    used_g, used_p = set(), set()
    while True:
        best = None
        for g, p in remaining:
            if g in used_g or p in used_p:
                continue
            v = iou(gt.masks[g], pred.masks[p])
            if v <= 0:
                continue
            key = (-v, g, p)
            if best is None or key < best[0]:
                best = (key, g, p, v)
        if best is None:
            break
        _, g, p, v = best
        pairs.append((g, p, v))
        used_g.add(g)
        used_p.add(p)
    return pairs


class TestIou:
    def test_equal_masks(self):
        m = block(4, 4, 0, 0, 2, 2)
        assert iou(m, m) == 1.0

    def test_disjoint(self):
        assert iou(block(4, 4, 0, 0, 2, 2), block(4, 4, 2, 2, 2, 2)) == 0.0

    def test_shifted_block_third(self):
        a = block(4, 4, 0, 0, 2, 2)
        b = block(4, 4, 0, 1, 2, 2)
        assert iou(a, b) == pytest.approx(1 / 3)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            iou(np.zeros((2, 2), bool), np.zeros((3, 3), bool))


class TestMatchInstances:
    def test_perfect_prediction(self):
        gt = MaskSet(masks=[block(6, 6, 0, 0, 2, 2), block(6, 6, 3, 3, 2, 2)])
        pred = MaskSet(masks=[m.copy() for m in gt.masks])
        pairs = match(gt, pred)
        assert len(pairs) == 2
        assert all(v == 1.0 for _, _, v in pairs)
        assert not unmatched(len(gt), [g for g, _, _ in pairs])
        assert not unmatched(len(pred), [p for _, p, _ in pairs])

    def test_contested_pred_goes_to_higher_iou(self):
        # one pred overlapping two gts: the greedy order forces gt0
        gt = MaskSet(masks=[block(8, 8, 0, 0, 2, 4), block(8, 8, 2, 0, 4, 4)])
        pred = MaskSet(masks=[block(8, 8, 0, 0, 3, 4)])
        pairs = match(gt, pred)
        i0 = iou(gt.masks[0], pred.masks[0])
        i1 = iou(gt.masks[1], pred.masks[0])
        assert i0 > i1
        assert pairs == [(0, 0, pytest.approx(i0))]
        assert unmatched(len(gt), [g for g, _, _ in pairs]) == [1]

    def test_empty_pred(self):
        gt = MaskSet(masks=[block(4, 4, 0, 0, 2, 2)])
        pairs = match(gt, MaskSet(masks=[]))
        assert unmatched(len(gt), [g for g, _, _ in pairs]) == [0]
        assert pairs == []

    def test_matches_step_verified_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            gt = random_mask_set(rng, 8, 8, int(rng.integers(1, 7)))
            pred = random_mask_set(rng, 8, 8, int(rng.integers(0, 7)) or 1)
            got = match(gt, pred)
            want = greedy_oracle(gt, pred)
            assert [(g, p) for g, p, _ in got] == \
                [(g, p) for g, p, _ in want]


class TestComputeReport:
    def test_perfect(self):
        gt = MaskSet(masks=[block(6, 6, 0, 0, 3, 3), block(6, 6, 4, 4, 2, 2)])
        pred = MaskSet(masks=[m.copy() for m in gt.masks])
        r = compute_report(gt, pred)
        assert (r.mP, r.mR, r.mIoU, r.aIoU) == (1.0, 1.0, 1.0, 1.0)
        assert (r.tp, r.fp, r.fn) == (2, 0, 0)

    def test_area_weighted_example(self):
        # areas 60 and 20 with IoUs 0.5 and 1.0: mIoU 0.75, aIoU 0.625
        gt = MaskSet(masks=[block(20, 20, 0, 0, 6, 10),
                            block(20, 20, 10, 0, 2, 10)])
        pred = MaskSet(masks=[block(20, 20, 0, 0, 3, 10),
                              block(20, 20, 10, 0, 2, 10)])
        assert iou(gt.masks[0], pred.masks[0]) == pytest.approx(0.5)
        r = compute_report(gt, pred)
        assert r.mIoU == pytest.approx(0.75)
        assert r.aIoU == pytest.approx(0.625)

    def test_shifted_block_case(self):
        gt = MaskSet(masks=[block(4, 4, 0, 0, 2, 2)])
        pred = MaskSet(masks=[block(4, 4, 0, 1, 2, 2)])
        r = compute_report(gt, pred)
        assert r.mIoU == pytest.approx(1 / 3)
        assert r.mP == pytest.approx(0.5)
        assert r.mR == pytest.approx(0.5)

    def test_unmatched_count_zero(self):
        gt = MaskSet(masks=[block(4, 4, 0, 0, 2, 2), block(4, 4, 2, 2, 2, 2)])
        pred = MaskSet(masks=[block(4, 4, 0, 0, 2, 2)])
        r = compute_report(gt, pred)
        assert r.mIoU == pytest.approx(0.5)
        assert r.fn == 1
        assert r.tp + r.fn == 2

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        gt = random_mask_set(rng, 8, 8, 4)
        pred = random_mask_set(rng, 8, 8, 3)
        r1 = compute_report(gt, pred)
        perm_gt = MaskSet(masks=[gt.masks[i] for i in (2, 0, 3, 1)])
        perm_pred = MaskSet(masks=[pred.masks[i] for i in (1, 2, 0)])
        r2 = compute_report(perm_gt, perm_pred)
        for k in ("mP", "mR", "mIoU", "aIoU"):
            assert getattr(r1, k) == pytest.approx(getattr(r2, k), abs=1e-12)

    def test_erosion_never_raises_miou(self):
        rng = np.random.default_rng(2)
        gt = random_mask_set(rng, 8, 8, 2)
        pred = MaskSet(masks=[m.copy() for m in gt.masks])
        base = compute_report(gt, pred).mIoU
        eroded = []
        for m in pred.masks:
            e = m.copy()
            ys, xs = np.nonzero(e)
            e[ys[0], xs[0]] = False
            if not e.any():
                e[ys[0], xs[0]] = True
            eroded.append(e)
        assert compute_report(gt, MaskSet(masks=eroded)).mIoU <= base

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_report(MaskSet(masks=[]), MaskSet(masks=[]))

    def test_report_dict_fields(self):
        gt = MaskSet(masks=[block(4, 4, 0, 0, 2, 2)])
        d = report_to_dict(compute_report(gt, gt))
        assert set(d) == {"mP", "mR", "mIoU", "aIoU", "tp", "fp", "fn",
                          "instances"}
        assert d["instances"][0]["iou"] == 1.0


class TestMaskSet:
    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            MaskSet(masks=[np.zeros((2, 2), bool)])

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            MaskSet(masks=[block(2, 2, 0, 0, 1, 1), block(3, 3, 0, 0, 1, 1)])

    def test_bool_stack_kept_without_copy(self):
        stack = np.stack([block(4, 4, 0, 0, 2, 2), block(4, 4, 2, 1, 2, 3)])
        masks = MaskSet(masks=stack)
        assert masks.masks is stack
        assert len(masks) == 2 and masks.ids == [0, 1]

    def test_list_and_int_stack_stacked(self):
        masks = [block(4, 4, 0, 0, 2, 2), block(4, 4, 2, 1, 2, 3)]
        for given in (masks, np.stack(masks).astype(np.uint8)):
            got = MaskSet(masks=given)
            assert got.masks.dtype == bool
            assert np.array_equal(got.masks, np.stack(masks))
            assert not any(np.shares_memory(got.masks, m) for m in given)

    def test_equality_is_identity(self):
        # the generated __eq__ compared the mask arrays inside a tuple and
        # raised "truth value of an array ... is ambiguous"
        m = [block(4, 4, 0, 0, 2, 2), block(4, 4, 2, 1, 2, 3)]
        a, b = MaskSet(masks=m), MaskSet(masks=m)
        assert a == a
        assert a != b and not a == b
