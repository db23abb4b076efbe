"""Adam training loop for the student encoder, with checkpoint/resume.

The teacher is frozen; the layers of its capture the loss reads, and the
significance weights rolled out from its maps, are computed before the
first step for every sample and kept in dataset order. Each step embeds its samples' event volumes with the
student, replaces a seeded random subset of each sample's tokens with
the teacher's layer-0 image tokens (fresh positions every step), runs
the student, and minimizes the weighted distillation objective. A batch runs
in chunks of chunk_size samples whose rows are stacked into one graph,
and Adam updates one flat buffer of the trainable values and moments.
Per-step randomness derives from (seed, step, sample), so training is
bitwise resumable from any checkpoint.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .autodiff import NonFiniteError, Tensor, grad_check
from .distill import DistillConfig, distill_loss, layer_weights, mix_tokens
from .encoder import (CHANNELS, EmbeddingCapture, TrainablePlan, ViTConfig,
                      ViTParams, apply_lora, embed_image, forward_tokens,
                      init_params, param_shapes, trainable_shapes)
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
        for name in ("epochs", "steps_per_epoch", "batch_size",
                     "decay_epoch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("lr", "decay_factor"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if self.decay_epoch > self.epochs:
            raise ValueError(f"decay_epoch must not exceed epochs "
                             f"({self.epochs}), got {self.decay_epoch}")


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Learning rate for a 1-based epoch: one decay at decay_epoch."""
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    decays = 1 if epoch >= config.decay_epoch else 0
    return config.lr * config.decay_factor ** decays


@dataclass
class TrainState:
    """Parameters, Adam moments and step of a run.

    The trainable entries' values, m and v live in the three rows of one
    (3, size) block, in `layout` order (sorted names). The first read of
    `flat` copies them in and binds each trainable Tensor.data and each m/v
    array to its view, so the arrays the state was built from are never
    written. `create` packs at once, while no graph holds memory; a loaded
    state packs at its first update, so a checkpoint only read costs no copy.
    Building a state sets requires_grad on exactly the layout's entries of
    `params` and clears every .grad: the state alone decides what trains.
    """
    params: ViTParams
    plan: TrainablePlan
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    # name -> (its slice of each flat buffer, its shape), names sorted
    layout: dict[str, tuple[slice, tuple]] = field(
        init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.layout, self.size = {}, 0
        for name in sorted(self.m):
            shape = self.m[name].shape
            end = self.size + math.prod(shape)
            self.layout[name] = (slice(self.size, end), shape)
            self.size = end
        entries = self.params.tensors
        absent = [n for n in self.layout if n not in entries]
        if absent:
            raise ValueError(f"moments of absent entries: {', '.join(absent)}")
        for name, t in entries.items():
            t.requires_grad, t.grad = name in self.layout, None

    @classmethod
    def create(cls, params: ViTParams, plan: TrainablePlan,
               seed: int = 0) -> "TrainState":
        """Zeroed Adam moments for the plan's entries; a plan with a rank first
        attaches its adapters to a copy of `params`, drawn from `seed`."""
        shapes = trainable_shapes(params.config, plan)
        if plan.lora_rank is not None:
            params = apply_lora(params, shapes, seed=seed)
        state = cls(params=params, plan=plan,
                    m={n: np.zeros(s) for n, s in shapes.items()},
                    v={n: np.zeros(s) for n, s in shapes.items()})
        state.flat
        return state

    @functools.cached_property
    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flat (size,) buffers of values, m and v: rows of one block."""
        entries = self.params.tensors
        groups = {"value": [entries[n].data for n in self.layout],
                  "m": [self.m[n] for n in self.layout],
                  "v": [self.v[n] for n in self.layout]}
        # rows of one block: glibc trims the heap top once twice the largest
        # mmapped block it has freed lies free there, and with three 9.5 MB
        # buffers each train-mid chunk's ~23 MB graph was trimmed and
        # faulted back in (docs/EQUATIONS.md, "Flat layout")
        p, m, v = block = np.empty((3, self.size))
        for row, (kind, arrays) in zip(block, groups.items()):
            for (name, (sl, shape)), a in zip(self.layout.items(), arrays):
                if a.shape != shape:
                    raise ValueError(f"{kind} of '{name}' has shape "
                                     f"{a.shape}, the plan {shape}")
                row[sl] = a.ravel()
        for name, (sl, shape) in self.layout.items():
            entries[name].data = p[sl].reshape(shape)
            self.m[name], self.v[name] = (m[sl].reshape(shape),
                                          v[sl].reshape(shape))
        return p, m, v


def adam_step(state: TrainState, g: np.ndarray, lr: float):
    """Bias-corrected Adam update of every trainable entry in one pass.

    `g` is the flat float64 gradient in `state.layout` order, which the
    update then uses as scratch. It is checked before anything changes: a
    gradient of another length or dtype raises ValueError, a non-finite
    one NonFiniteError naming its entry, and the step, values and moments
    stay as they were.
    """
    if g.shape != (state.size,) or g.dtype != np.float64:
        raise ValueError(f"flat gradient of {g.dtype} {g.shape}, "
                         f"the plan float64 ({state.size},)")
    if not np.isfinite(g).all():
        name = next(n for n, (sl, _) in state.layout.items()
                    if not np.isfinite(g[sl]).all())
        raise NonFiniteError(f"non-finite gradient for parameter '{name}'")
    p, m, v = state.flat
    state.step += 1
    t = state.step
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    # the per-entry update's operations in its order, per element:
    # m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g,
    # p -= (lr (m / (1 - b1^t))) / (sqrt(v / (1 - b2^t)) + eps)
    s = np.empty(state.size)
    m *= b1
    m += np.multiply(g, 1 - b1, out=s)
    v *= b2
    np.multiply(g, 1 - b2, out=s)
    s *= g
    v += s
    vhat = np.divide(v, 1 - b2 ** t, out=g)
    np.sqrt(vhat, out=vhat)
    vhat += eps
    step = np.divide(m, 1 - b1 ** t, out=s)
    step *= lr
    step /= vhat
    p -= step


# Float64 elements of (k, c) token rows that one graph stacks: 2**15, so
# a chunk holds max(1, STACK // (k·c)) samples. One numpy call costs a
# few microseconds against about 0.6 ns per element, so a small sample's
# step is all call overhead; a large one's graph is all memory, and past
# two train-mid samples glibc trims and refaults it every chunk (see
# docs/EQUATIONS.md, "Stacked student step").
STACK = 1 << 15


def chunk_size(config: ViTConfig) -> int:
    """Samples that share one graph and one backward in a training step."""
    return max(1, STACK // (config.tokens * config.embed_dim))


def student_step_loss(teacher: EmbeddingCapture, student_params: ViTParams,
                      volumes: np.ndarray, dcfg: DistillConfig, mix_seeds,
                      weights=None):
    """Loss of m stacked samples: embed events, mix in image tokens, compare.

    `teacher` is the samples' stacked teacher capture, `volumes` their
    stacked (m, H, W, 3) event volumes, `mix_seeds` their token-mixing
    seeds. Image tokens come from the frozen teacher's layer-0 capture, so
    they are constants; routing them through the (trainable) student embed
    would leave a non-gradient path that breaks exact gradient checking.
    `weights` are the stacked teacher layer weights, if already rolled
    out. The loss and breakdown are sums over the samples.
    """
    event_tokens = embed_image(student_params, volumes)
    mixed = mix_tokens(event_tokens, teacher.embeddings[0], dcfg.mixing_ratio,
                       mix_seeds)
    capture = forward_tokens(student_params, mixed)
    return distill_loss(teacher, capture, dcfg, weights)


class TeacherCache:
    """What the loss reads of the frozen teacher's side of a dataset: the
    embeddings of layer 0 and of the distilled layers, their weights and
    the event volumes, each one array of samples 0 .. N + span - 2 modulo
    N. So a chunk of up to `span` consecutive samples is a slice: no copy.

    All of it is built here, before the first step: one forward_capture
    per sample, cut at once to the kept layers, then one layer_weights of
    the stacked maps, which are then dropped. So a sample that no step
    uses, as when steps x batch < N, still costs its teacher forward, and
    a sample whose capture fails stops the run before step 1.
    """

    def __init__(self, teacher: ViTParams, data: list, dcfg: DistillConfig,
                 span: int):
        # looked up per call, so a patched encoder.forward_capture applies
        from .encoder import forward_capture
        if not data:
            raise ValueError("data holds no samples")
        self.k = teacher.config.tokens
        # a layer past the depth is left for distill_loss to reject
        layers = dict.fromkeys(s for s in (0, *dcfg.layers)
                               if s <= teacher.config.depth)
        cut = [([c.embeddings[s].data for s in layers], c.attentions) for c
               in (forward_capture(teacher, image) for image, _ in data)]
        order = np.arange(len(data) + span - 1) % len(data)
        kept, maps = zip(*(cut[i] for i in order))
        self.embeddings = {s: np.concatenate(xs)
                           for s, xs in zip(layers, zip(*kept))}
        self.volumes = np.stack([data[i][1] for i in order])
        # per distilled layer a weight per embedding row, or None if uniform;
        # None under the student source, which rolls out the student each step
        self.weights = None if dcfg.attention_source == "student" else \
            layer_weights(dcfg, [np.stack(a) for a in zip(*maps)])
        # (first, m) -> (stacked capture, its weights, its volumes)
        self.chunks: dict[tuple[int, int], tuple] = {}

    def chunk(self, first: int, m: int) -> tuple:
        """(EmbeddingCapture of the kept layers without maps, layer weights
        or None, (m, H, W, 3) volumes) of the m samples first, first + 1,
        ... modulo N: 0 <= first < N, 1 <= m <= span."""
        if (first, m) not in self.chunks:
            rows = slice(first * self.k, (first + m) * self.k)
            weights = None if self.weights is None else \
                [None if w is None else w[rows] for w in self.weights]
            self.chunks[first, m] = (EmbeddingCapture(
                {s: Tensor(x[rows]) for s, x in self.embeddings.items()},
                attentions=None), weights, self.volumes[first:first + m])
        return self.chunks[first, m]


def train(teacher: ViTParams, state: TrainState, data: list,
          tcfg: TrainConfig, dcfg: DistillConfig,
          total_steps: int | None = None):
    """Run the optimization loop; returns (state, history).

    data is a list of (image, event_volume) pairs of (H, W, 3) arrays.
    history rows are dicts with step, epoch, lr, total, and per-layer terms.
    Each step runs its batch in chunks of chunk_size samples, one graph
    and one backward per chunk; each entry's .grad is added into its
    slice of one flat gradient for adam_step and cleared, and cleared
    before the first chunk too, so no stale gradient reaches a step.
    """
    chunk = min(chunk_size(state.params.config), tcfg.batch_size)
    cache = TeacherCache(teacher, data, dcfg, chunk)
    history: list[dict] = []
    entries = state.params.tensors
    trainable = [(sl, entries[name]) for name, (sl, _) in state.layout.items()]
    for _, t in trainable:
        t.zero_grad()
    steps = total_steps if total_steps is not None else \
        tcfg.epochs * tcfg.steps_per_epoch
    start = state.step
    # one flat gradient for the run, zeroed each step (adam_step uses it as
    # scratch): a fresh one each step raised train-mid's peak RSS by 3 MB
    grads = np.empty(state.size)
    for global_step in range(start, start + steps):
        epoch = global_step // tcfg.steps_per_epoch + 1
        lr = lr_at(tcfg, min(epoch, tcfg.epochs))
        grads.fill(0.0)
        total_val = 0.0
        breakdown_sum: dict[int, float] = {}
        for first in range(0, tcfg.batch_size, chunk):
            bs = range(first, min(first + chunk, tcfg.batch_size))
            capture, weights, volumes = cache.chunk(
                (global_step * tcfg.batch_size + first) % len(data), len(bs))
            loss, breakdown = student_step_loss(
                capture, state.params, volumes, dcfg,
                mix_seeds=[[tcfg.seed, global_step, b] for b in bs],
                weights=weights)
            if not np.isfinite(loss.data):
                raise NonFiniteError(
                    f"non-finite loss at step {global_step}; "
                    f"layer breakdown: {breakdown}")
            loss.backward()
            total_val += loss.item()
            for s, v in breakdown.items():
                breakdown_sum[s] = breakdown_sum.get(s, 0.0) + v
            for sl, t in trainable:
                if t.grad is not None:
                    grads[sl] += t.grad.ravel() / tcfg.batch_size
                    t.zero_grad()
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
              {**param_shapes(config), **shapes}.items()}
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
    teachers, weights, _ = TeacherCache(teacher, list(zip(images, volumes)),
                                        dcfg, 2).chunk(0, 2)

    def f():
        loss, _ = student_step_loss(teachers, student, volumes, dcfg,
                                    mix_seeds=[[seed, 0, 0], [seed, 0, 1]],
                                    weights=weights)
        return loss

    entries = student.tensors
    return grad_check(f, [entries[n] for n in state.m], step=step)
