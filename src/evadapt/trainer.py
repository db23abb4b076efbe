"""Adam training loop for the student encoder, with checkpoint/resume.

The teacher is frozen; its capture for each sample is computed once and
cached. Each step embeds the sample's event volume with the student,
replaces a seeded random subset of tokens with the student-embedded image
tokens (fresh positions every step), runs the student, and minimizes the
weighted distillation objective. Per-step randomness derives from
(seed, step), so training is bitwise resumable from any checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .autodiff import NonFiniteError, Tensor, grad_check
from .distill import DistillConfig, distill_loss, mix_tokens
from .encoder import (TrainablePlan, ViTConfig, ViTParams, apply_lora,
                      embed_image, forward_tokens, init_params,
                      mark_trainable, param_shapes, trainable_shapes)
from .io import DumpFormatError, from_doc, read_dump, write_dump


@dataclass
class TrainConfig:
    epochs: int = 5
    steps_per_epoch: int = 100
    batch_size: int = 1
    lr: float = 2e-4
    decay_factor: float = 0.9
    decay_epoch: int = 4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "steps_per_epoch", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.decay_epoch > self.epochs:
            raise ValueError("decay epoch must not exceed epochs")


# the full-scale reference training profile; acceptance uses the tiny profile
FULL_PROFILE = TrainConfig(epochs=5, steps_per_epoch=2700, batch_size=24,
                            lr=2e-4, decay_factor=0.9, decay_epoch=4)


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Learning rate for a 1-based epoch: one decay at decay_epoch."""
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    decays = 1 if epoch >= config.decay_epoch else 0
    return config.lr * config.decay_factor ** decays


@dataclass
class TrainState:
    params: ViTParams
    plan: TrainablePlan
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def create(cls, params: ViTParams, plan: TrainablePlan,
               seed: int = 0) -> "TrainState":
        """Zeroed Adam moments for the plan's entries; a LoRA plan first
        attaches its adapters to a copy of `params`, drawn from `seed`."""
        shapes = trainable_shapes(params.config, plan)
        if plan.mode == "lora":
            params = apply_lora(params, plan.lora_rank, _adapter_sites(shapes),
                                seed=seed)
        mark_trainable(params, plan)
        return cls(params=params, plan=plan,
                   m={n: np.zeros(s) for n, s in shapes.items()},
                   v={n: np.zeros(s) for n, s in shapes.items()})


def _adapter_sites(shapes: dict) -> list[str]:
    """The LoRA sites among trainable_shapes' entries, in plan order."""
    return [n.removesuffix(".lora_a") for n in shapes if n.endswith(".lora_a")]


def adam_step(state: TrainState, grads: dict[str, np.ndarray],
              lr: float, cfg: TrainConfig):
    """Bias-corrected Adam update on the trainable entries only."""
    state.step += 1
    t = state.step
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    entries = state.params.all_entries()
    for name in sorted(state.m):
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(entries[name].data)
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for parameter '{name}'")
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        mhat = state.m[name] / (1 - b1 ** t)
        vhat = state.v[name] / (1 - b2 ** t)
        entries[name].data = entries[name].data - lr * mhat / (np.sqrt(vhat) + eps)


def student_step_loss(teacher_capture, student_params: ViTParams,
                      image: np.ndarray, volume: np.ndarray,
                      dcfg: DistillConfig, mix_seed):
    """Loss for one sample: embed events, mix in image tokens, compare.

    Image tokens come from the frozen teacher's layer-0 capture, so they
    are constants; routing them through the (trainable) student embed
    would leave a non-gradient path that breaks exact gradient checking.
    """
    event_tokens = embed_image(student_params, volume)
    image_tokens = Tensor(teacher_capture.embeddings[0].data)
    mixed = mix_tokens(event_tokens, image_tokens, dcfg.mixing_ratio, mix_seed)
    capture = forward_tokens(student_params, mixed.tokens)
    return distill_loss(teacher_capture, capture, dcfg)


def train(teacher: ViTParams, state: TrainState, data: list,
          tcfg: TrainConfig, dcfg: DistillConfig,
          total_steps: int | None = None):
    """Run the optimization loop; returns (state, history).

    data is a list of (image, event_volume) pairs of (H, W, 3) arrays.
    history rows are dicts with step, epoch, lr, total, and per-layer terms.
    """
    from .encoder import forward_capture
    teacher_cache: dict[int, object] = {}
    history: list[dict] = []
    entries = state.params.all_entries()
    steps = total_steps if total_steps is not None else \
        tcfg.epochs * tcfg.steps_per_epoch
    start = state.step
    for global_step in range(start, start + steps):
        epoch = global_step // tcfg.steps_per_epoch + 1
        lr = lr_at(tcfg, min(epoch, tcfg.epochs))
        grads: dict[str, np.ndarray] = {}
        total_val = 0.0
        breakdown_sum: dict[int, float] = {}
        for b in range(tcfg.batch_size):
            idx = (global_step * tcfg.batch_size + b) % len(data)
            image, volume = data[idx]
            if idx not in teacher_cache:
                teacher_cache[idx] = forward_capture(teacher, image)
            for name in state.m:
                entries[name].zero_grad()
            loss, breakdown = student_step_loss(
                teacher_cache[idx], state.params, image, volume, dcfg,
                mix_seed=[tcfg.seed, global_step, b])
            if not np.isfinite(loss.data):
                raise NonFiniteError(
                    f"non-finite loss at step {global_step}; "
                    f"layer breakdown: {breakdown}")
            loss.backward()
            total_val += loss.item()
            for s, v in breakdown.items():
                breakdown_sum[s] = breakdown_sum.get(s, 0.0) + v
            for name in sorted(state.m):
                g = entries[name].grad
                if g is None:
                    continue
                grads[name] = grads.get(name, 0.0) + g / tcfg.batch_size
        adam_step(state, grads, lr, tcfg)
        row = {"step": global_step + 1, "epoch": epoch, "lr": lr,
               "total": total_val / tcfg.batch_size}
        for s, v in breakdown_sum.items():
            row[f"layer_{s}"] = v / tcfg.batch_size
        history.append(row)
    return state, history


# -- checkpointing ----------------------------------------------------------

def save_checkpoint(path, state: TrainState, extra_meta: dict | None = None,
                    extra_tensors: dict | None = None):
    tensors: dict[str, np.ndarray] = {}
    for name, t in state.params.all_entries().items():
        tensors[f"param.{name}"] = t.data
    for name in state.m:
        tensors[f"adam.m.{name}"] = state.m[name]
        tensors[f"adam.v.{name}"] = state.v[name]
    if extra_tensors:
        tensors.update(extra_tensors)
    meta = {
        "model": asdict(state.params.config),
        "plan": asdict(state.plan),
        "step": state.step,
    }
    if extra_meta:
        meta.update(extra_meta)
    write_dump(path, tensors, meta=meta)


def load_checkpoint(path) -> tuple[TrainState, dict, dict]:
    """Returns (state, meta, extra tensors not consumed by the state).

    The model is built from the file's own arrays; nothing is drawn.
    """
    tensors, meta = read_dump(path)
    missing = [k for k in ("model", "plan", "step") if k not in meta]
    if missing:
        raise DumpFormatError(
            f"checkpoint metadata lacks {', '.join(missing)}")
    config = from_doc(ViTConfig, meta["model"], "model")
    plan = from_doc(TrainablePlan, meta["plan"], "plan")
    base, shapes = param_shapes(config), trainable_shapes(config, plan)
    sites = _adapter_sites(shapes)
    # entry -> shape, in all_entries order and then the moments' order
    wanted = {f"param.{n}": s for n, s in base.items()}
    wanted.update({f"param.{n}": shapes[n] for site in sites
                   for n in (f"{site}.lora_a", f"{site}.lora_b")})
    wanted.update({f"adam.{mv}.{n}": s for mv in "mv"
                   for n, s in shapes.items()})
    missing = [w for w in wanted if w not in tensors]
    if missing:
        raise DumpFormatError(f"checkpoint lacks {', '.join(missing)}")
    got = {w: tensors.pop(w).astype(np.float64, copy=False) for w in wanted}
    stray = [n for n in tensors if n.startswith(("param.", "adam."))]
    if stray:
        raise DumpFormatError(
            f"checkpoint entries not in the model: {', '.join(stray)}")
    wrong = [f"{w} {got[w].shape} (model {s})" for w, s in wanted.items()
             if got[w].shape != s]
    if wrong:
        raise DumpFormatError(
            f"checkpoint entry shapes differ: {', '.join(wrong)}")
    bad = [w for w, a in got.items() if not np.isfinite(a).all()]
    if bad:
        raise DumpFormatError(
            f"checkpoint entries not finite: {', '.join(bad)}")
    params = ViTParams(config)
    params.tensors = {n: Tensor(got[f"param.{n}"]) for n in base}
    params.lora = {site: (Tensor(got[f"param.{site}.lora_a"]),
                          Tensor(got[f"param.{site}.lora_b"]))
                   for site in sites}
    mark_trainable(params, plan)
    return (TrainState(params=params, plan=plan,
                       m={n: got[f"adam.m.{n}"] for n in shapes},
                       v={n: got[f"adam.v.{n}"] for n in shapes},
                       step=int(meta["step"])),
            meta, tensors)


def pipeline_grad_check(config: ViTConfig, plan: TrainablePlan,
                        dcfg: DistillConfig, seed: int = 0,
                        step: float = 1e-5) -> float:
    """grad_check of the full distillation loss on random inputs."""
    rng = np.random.default_rng(seed)
    teacher = init_params(config, seed=seed)
    # break the symmetric init so gradients are informative
    for t in teacher.tensors.values():
        t.data = t.data + rng.normal(0, 0.05, t.data.shape)
    state = TrainState.create(init_params(config, seed=seed + 1), plan,
                              seed=seed)
    student = state.params
    H = W = config.img_size
    image = rng.random((H, W, config.in_channels))
    volume = rng.random((H, W, config.in_channels))
    from .encoder import forward_capture
    teacher_capture = forward_capture(teacher, image)

    def f():
        loss, _ = student_step_loss(teacher_capture, student, image, volume,
                                    dcfg, mix_seed=[seed, 0])
        return loss

    entries = student.all_entries()
    return grad_check(f, [entries[n] for n in state.m], step=step)
