"""Command-line surface: train / eval / significance / params / voxelize /
synth / gradcheck.

Evaluation masks come from a minimal stand-in head: a per-token linear
classifier over the final embeddings, rasterized back to patches,
thresholded, and split into instances by connected-component labeling.
It exists so the metric pipeline runs end to end; it is not a trained
decoder and its absolute numbers carry no meaning.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from . import events as ev, synth
from .distill import DistillConfig
from .encoder import (TrainablePlan, ViTConfig, count_trainable,
                      forward_capture, init_params, trainable_shapes)
from .io import (ConfigError, DumpFormatError, from_doc, read_dump,
                 read_masks, write_dump, write_masks)
from .metrics import MaskSet, MetricsReport, compute_report, report_to_dict
from .significance import (convergence_diagnostic, token_significance,
                           transition_stack)
from .trainer import (TrainConfig, TrainState, load_checkpoint,
                      pipeline_grad_check, save_checkpoint, train)


@dataclass
class SceneConfig(synth.SceneSpec):
    """The `scene` section: each sample's SceneSpec seed comes from the run."""
    seed: int = field(default=0, init=False)
    num_shapes: int = 2
    num_samples: int = 8

    def __post_init__(self):
        super().__post_init__()
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")


@dataclass
class EventsConfig:
    bins: int = ev.DEFAULT_BINS
    signed: bool = False
    normalize: bool = True

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError("bins must be >= 1")


@dataclass
class RunConfig:
    """A whole run configuration document; its fields are the YAML schema."""
    seed: int = 0
    teacher_seed: int = 0
    out_dir: str = "out"
    model: ViTConfig = field(default_factory=ViTConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    plan: TrainablePlan = field(default_factory=TrainablePlan)
    scene: SceneConfig = field(default_factory=SceneConfig)
    events: EventsConfig = field(default_factory=EventsConfig)

    def __post_init__(self):
        try:
            trainable_shapes(self.model, self.plan)
        except ValueError as e:  # a layer the model does not have
            raise ConfigError(f"plan.{e}") from None


def load_config(path) -> dict:
    """The YAML document at `path`, checked by building its RunConfig."""
    return load_run(path)[0]


def load_run(path) -> tuple[dict, RunConfig]:
    """A config file's document and RunConfig; train.seed defaults to seed."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise ConfigError(f"{path}: {' '.join(str(e).split())}") from None
    if doc is None:  # an empty file
        doc = {}
    run = from_doc(RunConfig, doc)
    if "seed" not in doc.get("train", {}):
        run.train.seed = run.seed
    return doc, run


def _scene_spec(scene: SceneConfig, seed: int) -> synth.SceneSpec:
    spec = synth.SceneSpec(**{f.name: getattr(scene, f.name)
                              for f in fields(synth.SceneSpec)})
    spec.seed = seed
    spec.shapes = list(scene.shapes)
    if not spec.shapes:
        rng = np.random.default_rng(seed)
        H, W = spec.height, spec.width
        # cap the per-window travel at ~15% of the frame so shapes stay visible
        v_max = 0.15 * min(H, W) / max(spec.window_ms, 1.0)
        for i in range(scene.num_shapes):
            kind = "rectangle" if i % 2 == 0 else "disk"
            size = float(rng.uniform(0.15, 0.3) * min(H, W))
            spec.shapes.append(synth.Shape(
                kind=kind,
                position=(float(rng.uniform(0.3, 0.7) * W),
                          float(rng.uniform(0.3, 0.7) * H)),
                size=(size, size),
                velocity=(float(rng.uniform(-v_max, v_max)),
                          float(rng.uniform(-v_max, v_max))),
                intensity=float(rng.uniform(0.5, 1.0)),
            ))
    return spec


def make_dataset(doc: dict, n: int, seed: int):
    """(image, event volume, scene) triples from jittered scenes."""
    run = from_doc(RunConfig, doc)
    samples = []
    for i in range(n):
        spec = _scene_spec(run.scene, seed=seed + i)
        image = synth.render_frame(spec, spec.window_ms)
        stream = synth.generate_events(spec)
        window = (0, int(spec.window_ms * 1000))
        vol = ev.voxelize(stream, window, spec.height, spec.width,
                          B=run.events.bins, signed=run.events.signed)
        if run.events.normalize:
            vol = ev.normalize_volume(vol)
        samples.append((image, vol.grid, spec))
    return samples


# -- mask prediction head ---------------------------------------------------

def init_head(embed_dim: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"head.w": rng.normal(0, 1.0, embed_dim), "head.b": np.zeros(1)}


def predict_masks(params, head: dict[str, np.ndarray],
                  volume: np.ndarray) -> MaskSet | None:
    """Threshold per-token logits, rasterize to patches, label components."""
    cfg = params.config
    capture = forward_capture(params, volume)
    final = capture.embeddings[-1].data
    logits = final @ head["head.w"] + head["head.b"][0]
    grid = (logits > 0).reshape(cfg.grid, cfg.grid)
    # Upsampling keeps 4-connectivity and the raster order in which
    # components first appear, so token-grid labels upsample to the
    # pixel-grid labels.
    labels, count = _label_components(grid)
    ps = cfg.patch_size
    pixel = np.kron(labels, np.ones((ps, ps), dtype=np.int64))
    masks = [pixel == i for i in range(1, count + 1)]
    if not masks:
        return None
    return MaskSet(masks=masks)


def _label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components numbered 1.. in order of first raster cell.

    Every cell starts with its raster index and takes the least index of
    its 4-neighbours until nothing changes; each component then holds its
    first raster cell's index, and ranking those gives the labels.
    """
    H, W = mask.shape
    big = H * W
    lab = np.where(mask, np.arange(big).reshape(H, W), big)
    while True:
        new = lab.copy()
        np.minimum(new[1:], lab[:-1], out=new[1:])
        np.minimum(new[:-1], lab[1:], out=new[:-1])
        np.minimum(new[:, 1:], lab[:, :-1], out=new[:, 1:])
        np.minimum(new[:, :-1], lab[:, 1:], out=new[:, :-1])
        new[~mask] = big
        if np.array_equal(new, lab):
            break
        lab = new
    firsts = np.unique(lab[mask])
    labels = np.zeros((H, W), dtype=np.int64)
    labels[mask] = np.searchsorted(firsts, lab[mask]) + 1
    return labels, int(firsts.size)


def _aggregate(reports: list[MetricsReport]) -> dict:
    agg = {
        "frames": len(reports),
        "mP": float(np.mean([r.mP for r in reports])),
        "mR": float(np.mean([r.mR for r in reports])),
        "mIoU": float(np.mean([r.mIoU for r in reports])),
        "aIoU": float(np.mean([r.aIoU for r in reports])),
        "tp": int(sum(r.tp for r in reports)),
        "fp": int(sum(r.fp for r in reports)),
        "fn": int(sum(r.fn for r in reports)),
    }
    for k in ("mP", "mR", "mIoU", "aIoU"):
        agg[k] = float(f"{agg[k]:.6f}")
    return agg


# -- subcommands ------------------------------------------------------------

def cmd_train(args) -> int:
    doc, run = load_run(args.config)
    seed, config, plan = run.seed, run.model, run.plan
    if run.scene.height != config.img_size or \
            run.scene.width != config.img_size:
        raise ConfigError("scene.height/width must equal model.img_size")
    out_dir = args.out or run.out_dir
    os.makedirs(out_dir, exist_ok=True)
    data = [(img, vol) for img, vol, _ in
            make_dataset(doc, run.scene.num_samples, seed)]
    teacher = init_params(config, seed=run.teacher_seed)
    state = TrainState.create(teacher.copy(), plan, seed=seed)
    state, history = train(teacher, state, data, run.train, run.distill)
    head = init_head(config.embed_dim, seed)
    ckpt = os.path.join(out_dir, "checkpoint.evdt")
    save_checkpoint(ckpt, state, extra_meta={"seed": seed},
                    extra_tensors=head)
    csv_path = os.path.join(out_dir, "loss.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        columns = sorted({k for row in history for k in row},
                         key=lambda k: (k != "step", k))
        w = csv.DictWriter(fh, fieldnames=columns)
        w.writeheader()
        w.writerows(history)
    with open(os.path.join(out_dir, "config.resolved.yaml"), "w",
              encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
    print(f"trained {len(history)} steps; "
          f"final loss {history[-1]['total']:.6f}; wrote {ckpt}")
    return 0


def cmd_eval(args) -> int:
    if args.gt_dir and args.pred_dir:
        return _eval_mask_dirs(args)
    if args.gt_dir or args.pred_dir or not (args.checkpoint and args.config):
        print("eval: need --checkpoint with --config, or --gt-dir with "
              "--pred-dir", file=sys.stderr)
        return 2
    doc, run = load_run(args.config)
    state, meta, extra = load_checkpoint(args.checkpoint)
    if run.model != state.params.config:
        raise ConfigError("config/checkpoint model shapes differ")
    if "head.w" not in extra or "head.b" not in extra:
        raise DumpFormatError("checkpoint lacks the mask head head.w/head.b")
    head = {k: extra[k].astype(np.float64) for k in ("head.w", "head.b")}
    reports = []
    per_frame = []
    samples = make_dataset(doc, run.scene.num_samples, run.seed)
    for i, (image, vol, spec) in enumerate(samples):
        gt = synth.ground_truth_masks(spec, spec.window_ms)
        pred = predict_masks(state.params, head, vol)
        if pred is None:
            pred = MaskSet(masks=[], ids=[])
        r = compute_report(gt, pred)
        reports.append(r)
        per_frame.append({"frame": i, **report_to_dict(r)})
    out = {"aggregate": _aggregate(reports), "frames": per_frame}
    _write_json(args.out, out)
    return 0


def _eval_mask_dirs(args) -> int:
    names = sorted(os.listdir(args.gt_dir))
    reports = []
    per_frame = []
    for name in names:
        if not name.endswith(".rle"):
            continue
        gmasks, gids, _ = read_masks(os.path.join(args.gt_dir, name))
        gt = MaskSet(masks=gmasks, ids=gids)
        ppath = os.path.join(args.pred_dir, name)
        if os.path.exists(ppath):
            pmasks, pids, _ = read_masks(ppath)
            pred = MaskSet(masks=pmasks, ids=pids)
        else:
            pred = MaskSet(masks=[], ids=[])
        r = compute_report(gt, pred)
        reports.append(r)
        per_frame.append({"frame": name, **report_to_dict(r)})
    if not reports:
        print("eval: no .rle mask files found", file=sys.stderr)
        return 2
    out = {"aggregate": _aggregate(reports), "frames": per_frame}
    _write_json(args.out, out)
    return 0


def _write_json(path, obj):
    text = json.dumps(obj, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_significance(args) -> int:
    tensors, _ = read_dump(args.attn)
    mats = list(tensors.values())
    ks = {m.shape for m in mats}
    if any(m.ndim != 2 or m.shape[0] != m.shape[1] for m in mats) or len(ks) != 1:
        print("significance: dump must hold equal-size square matrices",
              file=sys.stderr)
        return 2
    # float32 storage (or a float32 softmax) leaves each row at most about
    # k float32 epsilons away from 1
    tol = len(mats[0]) * np.finfo(np.float32).eps
    for name, m in tensors.items():
        if not np.all(np.isfinite(m) & (m >= 0)):
            raise DumpFormatError(f"{args.attn}: entry '{name}' holds a "
                                  "negative or non-finite attention value")
        sums = m.sum(axis=1, dtype=np.float64)
        bad = np.flatnonzero(np.abs(sums - 1.0) > tol)
        if bad.size:
            raise DumpFormatError(f"{args.attn}: entry '{name}' row {bad[0]} "
                                  f"sums to {sums[bad[0]]:.9g}, not 1")
    stack = transition_stack([m.astype(np.float64) for m in mats])
    sig = token_significance(stack, args.layer, args.beta)
    diag = convergence_diagnostic(stack)
    rows = [("significance", i, v) for i, v in enumerate(sig.values)]
    rows += [("prefix_gap", i, v) for i, v in enumerate(diag)]
    out = args.out
    fh = open(out, "w", newline="", encoding="utf-8") if out else sys.stdout
    try:
        w = csv.writer(fh)
        w.writerow(["kind", "index", "value"])
        for kind, i, v in rows:
            w.writerow([kind, i, f"{v:.12g}"])
    finally:
        if out:
            fh.close()
    return 0


_PARAM_ROWS = [
    ("Embed", TrainablePlan(mode="embed")),
    ("Embed + Four MLPs", TrainablePlan(mode="embed+mlps", layers=(3, 6, 9, 12))),
    ("Embed + Four Blocks", TrainablePlan(mode="embed+blocks", layers=(3, 6, 9, 12))),
    ("Embed + All MLPs", TrainablePlan(mode="embed+all_mlps")),
    ("All", TrainablePlan(mode="all")),
    ("LoRA(Embed + Four MLPs, r=16)",
     TrainablePlan(mode="lora", lora_rank=16, lora_sites=("mlps", (3, 6, 9, 12)))),
    ("LoRA(Embed + Four MLPs, r=64)",
     TrainablePlan(mode="lora", lora_rank=64, lora_sites=("mlps", (3, 6, 9, 12)))),
    ("LoRA(Embed + Four MLPs, r=256)",
     TrainablePlan(mode="lora", lora_rank=256, lora_sites=("mlps", (3, 6, 9, 12)))),
    ("LoRA(Embed + All Blocks, r=16)",
     TrainablePlan(mode="lora", lora_rank=16,
                   lora_sites=("blocks", tuple(range(1, 13))))),
]


def cmd_params(args) -> int:
    if args.config:
        config = load_run(args.config)[1].model
    else:
        from .encoder import VIT_B
        config = VIT_B
    total = count_trainable(config, TrainablePlan(mode="all"))
    print(f"{'Plan':36s} {'Trainable':>12s} {'% of total':>10s}")
    for label, plan in _PARAM_ROWS:
        try:
            n = count_trainable(config, plan)
        except ValueError:
            continue
        print(f"{label:36s} {n:12d} {100.0 * n / total:9.1f}%")
    return 0


def cmd_voxelize(args) -> int:
    stream, dims = ev.read_events(args.events)
    if dims is None:
        if args.height is None or args.width is None:
            print("voxelize: need --height/--width or a '# H= W=' header",
                  file=sys.stderr)
            return 2
        dims = (args.height, args.width)
    t_start = args.t_start
    t_end = args.t_end if args.t_end is not None else \
        (stream[-1].t if stream else t_start + 1)
    vol = ev.voxelize(stream, (t_start, t_end), dims[0], dims[1],
                      B=args.bins, signed=args.signed)
    if args.normalize:
        vol = ev.normalize_volume(vol)
    write_dump(args.out, {"volume": vol.grid},
               meta={"window": [t_start, t_end], "bins": args.bins})
    print(f"wrote {args.out}: volume {vol.grid.shape}, sum {vol.grid.sum():g}")
    return 0


def cmd_synth(args) -> int:
    run = load_run(args.config)[1] if args.config else RunConfig()
    spec = _scene_spec(run.scene, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    frame = synth.render_frame(spec, spec.window_ms)
    stream = synth.generate_events(spec)
    masks = synth.ground_truth_masks(spec, spec.window_ms)
    write_dump(os.path.join(args.out, "frame.evdt"), {"frame": frame})
    ev.write_events(os.path.join(args.out, "events.txt"), stream,
                    dims=(spec.height, spec.width))
    write_masks(os.path.join(args.out, "masks.rle"), masks.masks, masks.ids,
                shape=(spec.height, spec.width))
    with open(os.path.join(args.out, "scene.yaml"), "w", encoding="utf-8") as fh:
        scene = asdict(spec)
        seed = scene.pop("seed")
        yaml.safe_dump({"scene": scene, "seed": seed}, fh, sort_keys=True)
    print(f"wrote sample to {args.out}: {len(stream)} events, "
          f"{len(masks)} masks")
    return 0


def cmd_gradcheck(args) -> int:
    doc, run = load_run(args.config) if args.config else ({}, RunConfig())
    config = run.model if doc.get("model") else ViTConfig(
        img_size=8, patch_size=4, embed_dim=8, depth=2, num_heads=2,
        mlp_hidden=16)
    plan = run.plan if doc.get("plan") else TrainablePlan(
        mode="embed+mlps", layers=(1, 2))
    dcfg = run.distill if doc.get("distill") else DistillConfig(
        layers=(0, 1, 2), gammas=(0.5, 1.0), mixing_ratio=0.25)
    err = pipeline_grad_check(config, plan, dcfg, seed=args.seed,
                              step=args.step)
    print(f"max relative gradient error: {err:.3e}")
    return 0 if err <= 1e-4 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="evadapt")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("train", help="run the distillation training loop")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="segmentation metrics on synthetic data")
    p.add_argument("--config")
    p.add_argument("--checkpoint")
    p.add_argument("--gt-dir")
    p.add_argument("--pred-dir")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("significance", help="token significance + prefix gaps")
    p.add_argument("--attn", required=True)
    p.add_argument("--layer", type=int, default=1)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_significance)

    p = sub.add_parser("params", help="trainable parameter counts per plan")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("voxelize", help="events file -> volume dump")
    p.add_argument("--events", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--bins", type=int, default=3)
    p.add_argument("--t-start", type=int, default=0)
    p.add_argument("--t-end", type=int, default=None)
    p.add_argument("--signed", action="store_true")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(fn=cmd_voxelize)

    p = sub.add_parser("synth", help="generate a synthetic sample directory")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("gradcheck", help="full-pipeline gradient check")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.set_defaults(fn=cmd_gradcheck)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
