"""Instance-segmentation quality: greedy max-IoU matching and aggregates.

Matching is greedy over all (gt, pred) pairs with IoU > 0, in descending
IoU order, one-to-one, tie-broken by lower gt id then lower pred id.
Unmatched ground-truth instances score 0 on precision/recall/IoU and are
counted in the means; aIoU weights per-instance IoU by mask area over the
total ground-truth mask area, so a perfect prediction scores 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(eq=False)
class MaskSet:
    """Instance masks as one (n, H, W) bool array, with an id each.

    A bool array given is kept as it is; anything else, such as a list of
    (H, W) bool or 0/1 masks, is stacked once here.
    """
    masks: np.ndarray
    ids: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.ids:
            self.ids = list(range(len(self.masks)))
        if len({m.shape for m in self.masks}) > 1:
            raise ValueError("inconsistent mask dimensions")
        masks = self.masks = np.asarray(self.masks, dtype=bool)
        empty = np.flatnonzero(~masks.any(axis=tuple(range(1, masks.ndim))))
        if empty.size:
            raise ValueError(f"mask {self.ids[empty[0]]} is empty")

    def __len__(self):
        return len(self.masks)


MEANS = ("mP", "mR", "mIoU", "aIoU")  # a report's four aggregates


@dataclass
class MetricsReport:
    mP: float
    mR: float
    mIoU: float
    aIoU: float
    tp: int
    fp: int
    fn: int
    instances: list[dict]


def iou(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError("mask dimensions differ")
    a = a.astype(bool)
    b = b.astype(bool)
    inter = np.logical_and(a, b).sum()
    union = np.logical_or(a, b).sum()
    return float(inter) / float(union) if union else 0.0


def _packed(masks: MaskSet, size: int) -> np.ndarray:
    """The masks as rows of 64-bit words, one bit a cell, zero-padded."""
    bits = np.packbits(masks.masks.reshape(len(masks), size), axis=1)
    words = np.zeros((len(masks), -(-size // 64) * 8), dtype=np.uint8)
    words[:, :bits.shape[1]] = bits
    return words.view(np.uint64)


def _cells(words: np.ndarray) -> np.ndarray:
    """The set bits in each row of packed words."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _overlap_table(gt: MaskSet, pred: MaskSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, P) intersection counts and the gt and pred mask areas."""
    shape = gt.masks[0].shape
    if any(m.shape != shape for m in pred.masks):
        raise ValueError("gt and pred mask dimensions differ")
    gw, pw = (_packed(s, gt.masks[0].size) for s in (gt, pred))
    # one GT row at a time: no (G, P, words) temporary
    inter = np.stack([_cells(pw & g) for g in gw])
    return inter, _cells(gw), _cells(pw)


def _greedy_match(inter, ga, pa) -> list[tuple[int, int, float]]:
    """Greedy one-to-one (gt index, pred index, IoU) pairs in descending
    IoU order."""
    G, P = inter.shape
    candidates = []
    for g in range(G):
        for p in range(P):
            if inter[g, p] > 0:
                u = ga[g] + pa[p] - inter[g, p]
                candidates.append((inter[g, p] / u, g, p))
    # descending IoU; ties by lower gt id then lower pred id
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_g: set[int] = set()
    used_p: set[int] = set()
    pairs = []
    for v, g, p in candidates:
        if g in used_g or p in used_p:
            continue
        pairs.append((g, p, float(v)))
        used_g.add(g)
        used_p.add(p)
    return pairs


def compute_report(gt: MaskSet, pred: MaskSet) -> MetricsReport:
    """Per-instance precision/recall/IoU plus the four aggregates."""
    if len(gt) == 0:
        raise ValueError("ground-truth mask set is empty")
    inter, ga, pa = _overlap_table(gt, pred)
    pairs = _greedy_match(inter, ga, pa)
    by_gt = {g: (p, v) for g, p, v in pairs}
    instances = []
    for g in range(len(gt)):
        p, v = by_gt.get(g, (None, 0.0))
        hit = p is not None
        it = float(inter[g, p]) if hit else 0.0
        instances.append({"gt": gt.ids[g], "pred": pred.ids[p] if hit else None,
                          "p": it / float(pa[p]) if hit else 0.0,
                          "r": it / float(ga[g]), "iou": v, "area": int(ga[g])})
    ious = np.array([i["iou"] for i in instances])
    areas = np.array([i["area"] for i in instances], dtype=np.float64)
    return MetricsReport(
        mP=float(np.mean([i["p"] for i in instances])),
        mR=float(np.mean([i["r"] for i in instances])),
        mIoU=float(np.mean(ious)),
        aIoU=float((areas * ious).sum() / areas.sum()),
        tp=len(pairs),
        fp=len(pred) - len(pairs),
        fn=len(gt) - len(pairs),
        instances=instances,
    )


def rounded(x) -> float:
    """A report's number as it is written: rounded to 6 decimals."""
    return float(f"{x:.6f}")


def report_to_dict(r: MetricsReport) -> dict:
    return {**{k: rounded(getattr(r, k)) for k in MEANS},
            "tp": r.tp, "fp": r.fp, "fn": r.fn,
            "instances": [i | {k: rounded(i[k]) for k in ("p", "r", "iou")}
                          for i in r.instances]}
