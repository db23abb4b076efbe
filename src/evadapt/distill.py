"""Mixed-token student inputs and the weighted multi-layer L1 objective.

The loss compares the student's per-layer token embeddings against the
teacher's, weighting each token by its rolled-out attention significance.
Layer 0 (the patch-embedding output) is always compared unweighted so the
embedding map itself stays unbiased. The teacher side is constant: no
gradient ever reaches teacher parameters, and significance weights are
treated as constants regardless of which network's attention sourced them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, weighted_l1, where_rows
from .encoder import EmbeddingCapture
from .significance import token_significance, transition_stack

ATTENTION_SOURCES = ("teacher", "student", "teacher_single_layer", "uniform")


@dataclass
class DistillConfig:
    layers: tuple[int, ...] = (0, 3, 6, 9, 12)
    gammas: tuple[float, ...] = (0.1, 0.4, 0.7, 1.0)   # for the nonzero layers, in order
    gamma0: float = 1.0                     # layer-0 weight, always uniform
    beta: float = 0.5
    mixing_ratio: float = 0.1
    attention_source: str = "teacher"
    rollout_horizon: int | None = None

    def __post_init__(self):
        if self.attention_source not in ATTENTION_SOURCES:
            raise ValueError(f"attention_source must name an attention "
                             f"source of {', '.join(ATTENTION_SOURCES)}, "
                             f"got {self.attention_source!r}")
        if not self.layers:
            raise ValueError("layers must name at least one layer")
        if any(s < 0 for s in self.layers):
            raise ValueError("layers must be >= 0")
        if len(set(self.layers)) != len(self.layers):
            raise ValueError(f"layers must be distinct, got {list(self.layers)}")
        if not 0 <= self.gamma0 < np.inf:
            raise ValueError(f"gamma0 must be >= 0 and finite, "
                             f"got {self.gamma0}")
        if not all(0 <= g < np.inf for g in self.gammas):
            raise ValueError(f"gammas must be >= 0 and finite, "
                             f"got {self.gammas}")
        for name in ("beta", "mixing_ratio"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.rollout_horizon is not None and self.rollout_horizon < 1:
            raise ValueError("rollout_horizon must be null or >= 1")
        nonzero = [s for s in self.layers if s != 0]
        if len(self.gammas) != len(nonzero):
            raise ValueError(
                f"gammas must hold {len(nonzero)} values, one per nonzero "
                f"layer, got {len(self.gammas)}")

    def gamma_for(self, layer: int) -> float:
        if layer == 0:
            return self.gamma0
        nonzero = [s for s in self.layers if s != 0]
        return self.gammas[nonzero.index(layer)]


def mix_tokens(event_tokens: Tensor, image_tokens: Tensor,
               ratio: float, seeds: list) -> Tensor:
    """Replace round(ratio * k) of each sample's k event tokens with
    same-position image tokens.

    The rows stack one sample per seed. Positions are drawn without
    replacement from a generator seeded by the sample's seed (an int or
    int sequence), so the replaced set is deterministic.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("mixing ratio must lie in [0, 1]")
    if event_tokens.shape != image_tokens.shape:
        raise ValueError("event and image token shapes differ")
    samples = len(seeds)
    if samples < 1 or event_tokens.shape[0] % samples:
        raise ValueError(f"cannot split {event_tokens.shape[0]} tokens into "
                         f"{samples} samples")
    k = event_tokens.shape[0] // samples
    n_rep = int(round(ratio * k))
    mask = np.zeros((samples, k), dtype=bool)
    for row, s in zip(mask, seeds):
        rng = np.random.default_rng(s)
        row[rng.choice(k, size=n_rep, replace=False)] = True
    return where_rows(mask.reshape(-1), image_tokens, event_tokens)


def layer_weights(cfg: DistillConfig,
                  attentions: list[np.ndarray]) -> list[np.ndarray | None]:
    """Significance weights of cfg.layers, in order; None weighs a layer
    uniformly. `attentions` are the maps of the network whose attention
    is rolled out: the teacher's, or the student's under the "student"
    source. Maps of m stacked samples, each (m, k, k), give each layer's
    (m·k,) weights of the stacked rows in one rollout. An empty map list
    raises ValueError under every source but "uniform", which reads none."""
    if cfg.attention_source == "uniform":
        return [None] * len(cfg.layers)
    n = len(attentions)
    if not n:
        raise ValueError(f"the {cfg.attention_source!r} source rolls out an "
                         f"empty attention-map list")
    # the single-layer source is the rollout cut to one block; rolling out
    # from the terminal layer is an empty product (uniform), so there it
    # takes its own incoming block instead
    single = cfg.attention_source == "teacher_single_layer"
    stack = transition_stack(attentions)
    horizon = 1 if single else cfg.rollout_horizon
    return [token_significance(stack, min(s, n - 1) + 1, cfg.beta,
                               horizon=horizon).values.reshape(-1)
            if s and (single or s < n) else None for s in cfg.layers]


def distill_loss(teacher: EmbeddingCapture, student: EmbeddingCapture,
                 cfg: DistillConfig,
                 weights: list[np.ndarray | None] | None = None,
                 ) -> tuple[Tensor, dict[int, float]]:
    """Total gamma-weighted loss over the configured layer set, one node.

    Returns (total, per-layer breakdown of the unscaled layer losses).
    Teacher embeddings enter as constants. `weights` are layer_weights of
    the source capture's maps when the caller has them already (the
    trainer caches the teacher's); otherwise they are rolled out here. For
    stacked captures every term is the sum of the samples' terms.
    """
    n = len(student.embeddings) - 1
    for layer in cfg.layers:
        if layer > n:
            raise ValueError(f"layer {layer} exceeds encoder depth {n}")
    if weights is None:
        weights = layer_weights(cfg, (student if cfg.attention_source
                                      == "student" else teacher).attentions)
    total, terms = weighted_l1(
        [teacher.embeddings[s].data for s in cfg.layers],
        [student.embeddings[s] for s in cfg.layers],
        weights, [cfg.gamma_for(s) for s in cfg.layers], student.samples)
    return total, dict(zip(cfg.layers, terms))
