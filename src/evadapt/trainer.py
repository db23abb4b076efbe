"""Adam training loop for the student encoder, with checkpoint/resume.

The teacher is frozen; its capture for each sample, and the significance
weights rolled out from it, are computed once and cached. Each step
embeds its samples' event volumes with the student, replaces a seeded
random subset of each sample's tokens with the teacher's layer-0 image
tokens (fresh positions every step), runs the student, and minimizes the
weighted distillation objective. A batch runs in chunks of chunk_size
samples whose rows are stacked into one graph. Per-step randomness
derives from (seed, step, sample), so training is bitwise resumable from
any checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .autodiff import NonFiniteError, Tensor, grad_check
from .distill import (DistillConfig, distill_loss, layer_weights, mix_tokens,
                      stack_weights)
from .encoder import (CHANNELS, TrainablePlan, ViTConfig, ViTParams,
                      adapter_shapes, apply_lora, embed_image, forward_tokens,
                      init_params, mark_trainable, param_shapes,
                      stack_captures, trainable_shapes)
from .io import DumpFormatError, from_doc, read_dump, write_dump

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    epochs: int = 5
    steps_per_epoch: int = 100
    batch_size: int = 1
    lr: float = 2e-4
    decay_factor: float = 0.9
    decay_epoch: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "steps_per_epoch", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("lr", "decay_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.decay_epoch > self.epochs:
            raise ValueError("decay epoch must not exceed epochs")


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
        """Zeroed Adam moments for the plan's entries; a plan with a rank first
        attaches its adapters to a copy of `params`, drawn from `seed`."""
        shapes = trainable_shapes(params.config, plan)
        if plan.lora_rank is not None:
            params = apply_lora(params, shapes, seed=seed)
        mark_trainable(params, plan)
        return cls(params=params, plan=plan,
                   m={n: np.zeros(s) for n, s in shapes.items()},
                   v={n: np.zeros(s) for n, s in shapes.items()})


def adam_step(state: TrainState, grads: dict[str, np.ndarray], lr: float):
    """Bias-corrected Adam update on the trainable entries only."""
    state.step += 1
    t = state.step
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    entries = state.params.tensors
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


# Elements of one sample's (k, c) token matrix below which a step stacks
# samples into one graph: 2**12 float64 values. One numpy call costs a
# few microseconds against about 0.6 ns per element, so a small sample's
# step is all call overhead; a large one's graph is all memory (see
# docs/EQUATIONS.md, "Stacked student step").
STACK = 1 << 12


def chunk_size(config: ViTConfig) -> int:
    """Samples that share one graph and one backward in a training step."""
    return max(1, STACK // (config.tokens * config.embed_dim))


def student_step_loss(teachers: list, student_params: ViTParams,
                      volumes: np.ndarray, dcfg: DistillConfig, mix_seeds,
                      weights=None):
    """Loss of m stacked samples: embed events, mix in image tokens, compare.

    `teachers` are the samples' teacher captures, `volumes` their stacked
    (m, H, W, 3) event volumes, `mix_seeds` their token-mixing seeds.
    Image tokens come from the frozen teacher's layer-0 capture, so they
    are constants; routing them through the (trainable) student embed
    would leave a non-gradient path that breaks exact gradient checking.
    `weights` are the samples' teacher layer weights, if already rolled
    out. The loss and breakdown are sums over the samples.
    """
    teacher = stack_captures(teachers)
    event_tokens = embed_image(student_params, volumes)
    image_tokens = Tensor(teacher.embeddings[0].data)
    mixed = mix_tokens(event_tokens, image_tokens, dcfg.mixing_ratio, mix_seeds)
    capture = forward_tokens(student_params, mixed)
    return distill_loss(teacher, capture, dcfg,
                        None if weights is None else stack_weights(weights))


def train(teacher: ViTParams, state: TrainState, data: list,
          tcfg: TrainConfig, dcfg: DistillConfig,
          total_steps: int | None = None):
    """Run the optimization loop; returns (state, history).

    data is a list of (image, event_volume) pairs of (H, W, 3) arrays.
    history rows are dicts with step, epoch, lr, total, and per-layer terms.
    Each step runs its batch in chunks of chunk_size samples, one graph
    and one backward per chunk.
    """
    from .encoder import forward_capture
    # sample index -> (teacher capture, its layer weights); the student
    # source rolls out the student's own attention every step instead
    teacher_cache: dict[int, tuple] = {}
    history: list[dict] = []
    entries = state.params.tensors
    chunk = chunk_size(state.params.config)
    steps = total_steps if total_steps is not None else \
        tcfg.epochs * tcfg.steps_per_epoch
    start = state.step
    for global_step in range(start, start + steps):
        epoch = global_step // tcfg.steps_per_epoch + 1
        lr = lr_at(tcfg, min(epoch, tcfg.epochs))
        grads: dict[str, np.ndarray] = {}
        total_val = 0.0
        breakdown_sum: dict[int, float] = {}
        for first in range(0, tcfg.batch_size, chunk):
            bs = range(first, min(first + chunk, tcfg.batch_size))
            idxs = [(global_step * tcfg.batch_size + b) % len(data)
                    for b in bs]
            for idx in idxs:
                if idx not in teacher_cache:
                    capture = forward_capture(teacher, data[idx][0])
                    weights = (None if dcfg.attention_source == "student"
                               else layer_weights(dcfg, capture))
                    teacher_cache[idx] = (capture, weights)
            for name in state.m:
                entries[name].zero_grad()
            loss, breakdown = student_step_loss(
                [teacher_cache[i][0] for i in idxs], state.params,
                np.stack([data[i][1] for i in idxs]), dcfg,
                mix_seeds=[[tcfg.seed, global_step, b] for b in bs],
                weights=(None if dcfg.attention_source == "student"
                         else [teacher_cache[i][1] for i in idxs]))
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
        adam_step(state, grads, lr)
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
    for name, t in state.params.tensors.items():
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
    step = meta["step"]
    if type(step) is not int or step < 0:
        raise DumpFormatError(
            f"checkpoint metadata step must be a non-negative integer, "
            f"got {step!r}")
    config = from_doc(ViTConfig, meta["model"], "model")
    plan = from_doc(TrainablePlan, meta["plan"], "plan")
    shapes = trainable_shapes(config, plan)
    # entry -> shape, in the model's entry order and then the moments' order
    wanted = {f"param.{n}": s for n, s in
              {**param_shapes(config), **adapter_shapes(shapes)}.items()}
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
    params = ViTParams(config, {w.removeprefix("param."): Tensor(a)
                                for w, a in got.items()
                                if w.startswith("param.")})
    mark_trainable(params, plan)
    return (TrainState(params=params, plan=plan,
                       m={n: got[f"adam.m.{n}"] for n in shapes},
                       v={n: got[f"adam.v.{n}"] for n in shapes},
                       step=step),
            meta, tensors)


def pipeline_grad_check(config: ViTConfig, plan: TrainablePlan,
                        dcfg: DistillConfig, seed: int = 0,
                        step: float = 1e-5) -> float:
    """grad_check of the full distillation loss of a two-sample stacked
    step on random inputs."""
    rng = np.random.default_rng(seed)
    teacher = init_params(config, seed=seed)
    # break the symmetric init so gradients are informative
    for t in teacher.tensors.values():
        t.data = t.data + rng.normal(0, 0.05, t.data.shape)
    state = TrainState.create(init_params(config, seed=seed + 1), plan,
                              seed=seed)
    student = state.params
    H = W = config.img_size
    images = rng.random((2, H, W, CHANNELS))
    volumes = rng.random((2, H, W, CHANNELS))
    from .encoder import forward_capture
    teachers = [forward_capture(teacher, image) for image in images]

    def f():
        loss, _ = student_step_loss(teachers, student, volumes, dcfg,
                                    mix_seeds=[[seed, 0, 0], [seed, 0, 1]])
        return loss

    entries = student.tensors
    return grad_check(f, [entries[n] for n in state.m], step=step)
