"""The four workloads. Each is a closed loop in one process.

A workload has a set-up, a loop of work items, and output checks. An
untraced run sets up afresh before every loop unit; ``setup_reps`` more
set-ups run up front for workloads that run few units. ``run`` does one
loop unit and returns a Record. It marks its timed regions with
``phase("loop")`` and leaves the rest as ``phase("check")``, so a Tracer
attributes spans to the right part. Every call into the program goes through a module attribute
(``trainer.train``, not an imported name) so a Tracer's patches apply.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evadapt import (autodiff, cli, distill, encoder, events, io, metrics,
                     significance, synth, trainer)

import checks

MODULES = {"autodiff": autodiff, "cli": cli, "distill": distill,
           "encoder": encoder, "events": events, "io": io,
           "metrics": metrics, "synth": synth, "trainer": trainer}

clock = time.perf_counter

# The model weights stay fixed; the workload seed draws the data (scenes,
# samples, token mixing). With a per-seed model the eval head's mask count,
# and so the matching cost, would vary with the seed rather than the data.
MODEL_SEED = 0


@dataclass
class Record:
    items: int                 # work items done (train steps, samples, frames)
    seconds: float             # timed wall seconds of those items
    loop_seconds: float = 0.0  # all timed seconds, checkpoint I/O included
    outputs: dict = field(default_factory=dict)   # kept for summaries
    heavy: dict = field(default_factory=dict)     # dropped after checks


def scene(seed: int, index: int, size: int,
          n_shapes: int = 2) -> synth.SceneSpec:
    """A moving-shape scene drawn from (seed, index); shapes stay in view."""
    rng = np.random.default_rng([seed, index])
    spec = synth.SceneSpec(height=size, width=size, seed=seed)
    v_max = 0.15 * size / spec.window_ms
    for i in range(n_shapes):
        r = float(rng.uniform(0.15, 0.3) * size)
        spec.shapes.append(synth.Shape(
            kind="rectangle" if i % 2 == 0 else "disk",
            position=(float(rng.uniform(0.3, 0.7) * size),
                      float(rng.uniform(0.3, 0.7) * size)),
            size=(r, r),
            velocity=(float(rng.uniform(-v_max, v_max)),
                      float(rng.uniform(-v_max, v_max))),
            intensity=float(rng.uniform(0.5, 1.0))))
    return spec


class TrainWorkload:
    """One loop unit is one trainer.train call from a fresh student, as a
    user's run makes it (the teacher cache starts empty), followed by one
    save_checkpoint -> load_checkpoint round trip timed on its own."""

    setup_reps = 1
    min_units = 2           # two runs of one seed to compare loss curves
    repeats = True          # every unit does the same work

    def __init__(self, out_dir: Path, root: Path):
        self.ckpt = out_dir / f"{self.name}.evdt"
        self.root = root

    def setup(self, seed: int):
        doc, plan, dcfg, tcfg = self.configs(seed)
        n = doc["scene"]["num_samples"]
        data = [(img, vol) for img, vol, _ in cli.make_dataset(doc, n, seed)]
        config = encoder.ViTConfig(**doc["model"])
        teacher = encoder.init_params(config, seed=doc["teacher_seed"])
        return {"data": data, "teacher": teacher, "plan": plan,
                "dcfg": dcfg, "tcfg": tcfg}

    def run(self, ctx, index, phase) -> Record:
        state = trainer.TrainState.create(ctx["teacher"].copy(), ctx["plan"])
        phase("loop")
        t0 = clock()
        state, history = trainer.train(ctx["teacher"], state, ctx["data"],
                                       ctx["tcfg"], ctx["dcfg"])
        t1 = clock()
        trainer.save_checkpoint(self.ckpt, state)
        loaded, _, _ = trainer.load_checkpoint(self.ckpt)
        t2 = clock()
        phase("check")
        return Record(items=len(history), seconds=t1 - t0,
                      loop_seconds=t2 - t0,
                      outputs={"history": history, "roundtrip_s": t2 - t1,
                               "checkpoint_mb": os.path.getsize(self.ckpt) / 1e6},
                      heavy={"state": state, "loaded": loaded})

    def check(self, ctx, rec: Record, ref: Record | None):
        history = rec.outputs["history"]
        checks.losses_finite(history)
        if ref is not None:
            checks.same_curve(history, ref.outputs["history"])
        checks.checkpoint_roundtrip(rec.heavy["state"], rec.heavy["loaded"])

    def summary(self, recs) -> dict:
        return {
            "train_steps_per_s": (sum(r.items for r in recs)
                                  / sum(r.seconds for r in recs), "1/s"),
            "train_loss_final": (recs[0].outputs["history"][-1]["total"], "1"),
            "checkpoint_roundtrip_s": (float(np.median(
                [r.outputs["roundtrip_s"] for r in recs])), "s"),
        }

    def checkpoint_mb(self, recs) -> float:
        return recs[0].outputs["checkpoint_mb"]


class TrainTiny(TrainWorkload):
    name = "train-tiny"
    setup_reps = 0

    def configs(self, seed):
        doc = cli.load_config(self.root / "configs" / "tiny.yaml")
        doc["seed"] = seed
        p = dict(doc.get("plan", {}))
        if "layers" in p:
            p["layers"] = tuple(p["layers"])
        d = dict(doc["distill"])
        d["layers"], d["gammas"] = tuple(d["layers"]), tuple(d["gammas"])
        tcfg = trainer.TrainConfig(**{**doc["train"], "seed": seed})
        return doc, encoder.TrainablePlan(**p), distill.DistillConfig(**d), tcfg


class TrainMid(TrainWorkload):
    name = "train-mid"

    def configs(self, seed):
        doc = {"seed": seed, "teacher_seed": MODEL_SEED,
               "model": {"img_size": 32, "patch_size": 4, "embed_dim": 192,
                         "depth": 12, "num_heads": 3, "mlp_hidden": 768},
               "scene": {"height": 32, "width": 32, "num_samples": 8}}
        tcfg = trainer.TrainConfig(epochs=1, steps_per_epoch=4, batch_size=8,
                                   decay_epoch=1, seed=seed)
        plan = encoder.TrainablePlan(mode="embed+mlps", layers=(3, 6, 9, 12))
        return doc, plan, distill.DistillConfig(), tcfg


class TeacherViTB:
    """One loop unit is one distinct rendered 512x512 frame through the
    ViT-B teacher and distill_loss(capture, capture)."""

    name = "teacher-vitb"
    setup_reps = 1
    min_units = 1
    repeats = False

    def __init__(self, out_dir: Path, root: Path):
        self.dcfg = distill.DistillConfig()

    def setup(self, seed: int):
        return {"seed": seed,
                "params": encoder.init_params(encoder.VIT_B, seed=MODEL_SEED)}

    def run(self, ctx, index, phase) -> Record:
        spec = scene(ctx["seed"], index, encoder.VIT_B.img_size)
        frame = synth.render_frame(spec, spec.window_ms)
        phase("loop")
        t0 = clock()
        capture = encoder.forward_capture(ctx["params"], frame)
        loss, breakdown = distill.distill_loss(capture, capture, self.dcfg)
        t1 = clock()
        phase("check")
        return Record(items=1, seconds=t1 - t0, loop_seconds=t1 - t0,
                      outputs={"loss": loss.item(), "breakdown": breakdown},
                      heavy={"capture": capture})

    def check(self, ctx, rec: Record, ref: Record | None):
        checks.loss_is_zero(rec.outputs["loss"], rec.outputs["breakdown"])
        capture = rec.heavy["capture"]
        cfg = self.dcfg
        stack = significance.transition_stack(capture.attentions)
        n, k = len(stack), stack[0].shape[0]
        weights = {}
        for layer in cfg.layers:
            if not 1 <= layer < n:
                weights[layer] = np.ones(k)   # distill weighs these uniformly
                continue
            s = layer + 1
            prod = significance.transition_exact(stack, s, [1.0] * (n - s + 1))
            oracle = cfg.beta * prod.sum(axis=1) + (1.0 - cfg.beta)
            w = significance.token_significance(stack, s, cfg.beta).values
            checks.significance(w, oracle)
            weights[layer] = oracle
        # the weights distill applies: perturb the student by a known
        # amount and compare each layer term with the oracle-weighted one
        rng = np.random.default_rng(0)
        student = encoder.EmbeddingCapture(
            embeddings=[autodiff.Tensor(x.data + rng.random(x.shape))
                        for x in capture.embeddings],
            attentions=capture.attentions)
        _, terms = distill.distill_loss(capture, student, cfg)
        for layer, w in weights.items():
            diff = np.abs(capture.embeddings[layer].data
                          - student.embeddings[layer].data)
            checks.weighted_term(terms[layer], float((diff * w[:, None]).mean()),
                                 layer)

    def summary(self, recs) -> dict:
        return {"teacher_pass_s": (float(np.median([r.seconds for r in recs])),
                                   "s")}

    def checkpoint_mb(self, recs) -> float:
        return 0.0


class EvalPipeline:
    """One loop unit is one distinct 128x128 frame through the per-frame
    `evadapt eval` path, with event and mask files round-tripped."""

    name = "eval-pipeline"
    setup_reps = 0
    min_units = 8           # eval_mIoU is the mean over the first 8 frames
    repeats = False
    size = 128
    config = dict(img_size=128, patch_size=8, embed_dim=32, depth=2,
                  num_heads=2, mlp_hidden=64)

    def __init__(self, out_dir: Path, root: Path):
        self.ckpt = out_dir / f"{self.name}.evdt"
        self.events_path = out_dir / f"{self.name}.events.txt"
        self.masks_path = out_dir / f"{self.name}.rle"

    def setup(self, seed: int):
        config = encoder.ViTConfig(**self.config)
        params = encoder.init_params(config, seed=MODEL_SEED)
        state = trainer.TrainState.create(
            params, encoder.TrainablePlan(mode="embed+all_mlps"))
        head = cli.init_head(config.embed_dim, MODEL_SEED)
        trainer.save_checkpoint(self.ckpt, state,
                                extra_meta={"seed": MODEL_SEED},
                                extra_tensors=head)
        state, _, extra = trainer.load_checkpoint(self.ckpt)
        head = {"head.w": extra["head.w"], "head.b": extra["head.b"]}
        return {"seed": seed, "params": state.params, "head": head}

    def run(self, ctx, index, phase) -> Record:
        H = W = self.size
        spec = scene(ctx["seed"], index, self.size)
        window = (0, int(spec.window_ms * 1000))
        phase("loop")
        t0 = clock()
        stream = synth.generate_events(spec)
        t1 = clock()
        events.write_events(self.events_path, stream, dims=(H, W))
        read_back, dims = events.read_events(self.events_path)
        t2 = clock()
        raw = events.voxelize(read_back, window, H, W)
        t3 = clock()
        volume = events.normalize_volume(raw)
        pred = cli.predict_masks(ctx["params"], ctx["head"], volume.grid)
        gt = synth.ground_truth_masks(spec, spec.window_ms)
        masks, ids = (pred.masks, pred.ids) if pred is not None else ([], [])
        io.write_masks(self.masks_path, masks, ids, shape=(H, W))
        read_masks, read_ids, _ = io.read_masks(self.masks_path)
        pred_read = metrics.MaskSet(masks=read_masks, ids=read_ids)
        report = metrics.compute_report(gt, pred_read)
        t4 = clock()
        phase("check")
        return Record(
            items=1, seconds=t4 - t0, loop_seconds=t4 - t0,
            outputs={"events": len(stream), "events_s": (t1 - t0) + (t3 - t2),
                     "report": metrics.report_to_dict(report),
                     "mIoU": report.mIoU},
            heavy={"stream": stream, "read_back": read_back, "dims": dims,
                   "raw": raw.grid, "window": window, "masks": masks,
                   "ids": ids, "read_masks": read_masks,
                   "read_ids": read_ids, "report": report, "gt": gt,
                   "pred": pred_read})

    def check(self, ctx, rec: Record, ref: Record | None):
        h = rec.heavy
        checks.events_roundtrip(h["stream"], h["read_back"], h["dims"],
                                (self.size, self.size))
        checks.voxel_count(h["raw"], h["stream"], h["window"])
        checks.masks_roundtrip(h["masks"], h["ids"], h["read_masks"],
                               h["read_ids"])
        checks.report_consistent(h["report"], h["gt"], h["pred"], metrics.iou)
        if ref is not None and ref.outputs["report"] != rec.outputs["report"]:
            raise checks.CheckFailed("report differs between traced and "
                                     "untraced passes over the same frame")

    def summary(self, recs) -> dict:
        return {
            "eval_frames_per_s": (sum(r.items for r in recs)
                                  / sum(r.seconds for r in recs), "1/s"),
            "events_per_s": (sum(r.outputs["events"] for r in recs)
                             / sum(r.outputs["events_s"] for r in recs), "1/s"),
            "eval_mIoU": (float(np.mean([r.outputs["mIoU"]
                                         for r in recs[:self.min_units]])), "1"),
        }

    def checkpoint_mb(self, recs) -> float:
        return os.path.getsize(self.ckpt) / 1e6


WORKLOADS = {w.name: w for w in (TrainTiny, TrainMid, TeacherViTB,
                                 EvalPipeline)}
