"""Plain ViT encoder exposing per-layer token embeddings and attention.

Teacher and student share this architecture. Blocks are pre-norm
(layernorm -> attention -> residual -> layernorm -> MLP -> residual) with
learned absolute positional embeddings and no class token, so the token
count is (img_size / patch_size)^2. The forward pass captures the
embedding matrix after every block plus the head-averaged post-softmax
attention of every block.

Selective trainability is expressed as a TrainablePlan; low-rank adapters
(additive B @ A on a frozen affine map, B zero-initialized) are available
as an alternative to full fine-tuning of a site.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import Tensor, gelu, layernorm, matmul, softmax_rows


@dataclass(frozen=True)
class ViTConfig:
    img_size: int = 512
    patch_size: int = 16
    in_channels: int = 3
    embed_dim: int = 768
    depth: int = 12
    num_heads: int = 12
    mlp_hidden: int | None = None  # defaults to 4 * embed_dim

    def __post_init__(self):
        if self.mlp_hidden is None:
            object.__setattr__(self, "mlp_hidden", 4 * self.embed_dim)
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")
        if self.img_size % self.patch_size != 0:
            raise ValueError("img_size must be divisible by patch_size")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")

    @property
    def grid(self) -> int:
        return self.img_size // self.patch_size

    @property
    def tokens(self) -> int:
        return self.grid ** 2

    @property
    def patch_dim(self) -> int:
        return self.patch_size ** 2 * self.in_channels


VIT_B = ViTConfig(img_size=512, patch_size=16, embed_dim=768, depth=12,
                  num_heads=12, mlp_hidden=3072)


@dataclass
class TrainablePlan:
    """Which parameters a training run may update.

    mode: none | embed | embed+mlps | embed+blocks | embed+all_mlps | all
          | lora
    layers: 1-based block indices for embed+mlps / embed+blocks.
    lora_rank / lora_sites: for mode "lora"; sites is ("mlps", layers) or
    ("blocks", layers). The embed map stays fully trainable under lora,
    matching the fine-tuning baselines.
    """
    mode: str = "embed+mlps"
    layers: tuple[int, ...] = (3, 6, 9, 12)
    lora_rank: int = 16
    lora_sites: tuple[str, tuple[int, ...]] = ("mlps", (3, 6, 9, 12))

    def validate(self, config: ViTConfig):
        modes = {"none", "embed", "embed+mlps", "embed+blocks",
                 "embed+all_mlps", "all", "lora"}
        if self.mode not in modes:
            raise ValueError(f"unknown plan mode: {self.mode}")
        layers = self.layers if self.mode in ("embed+mlps", "embed+blocks") \
            else (self.lora_sites[1] if self.mode == "lora" else ())
        for i in layers:
            if not 1 <= i <= config.depth:
                raise ValueError(f"layer index {i} out of range 1..{config.depth}")
        if self.mode == "lora" and self.lora_rank < 1:
            raise ValueError("lora rank must be >= 1")


# parameter names of the affine maps inside block i
def _block_affines(i: int) -> list[str]:
    return [f"block.{i}.qkv", f"block.{i}.proj",
            f"block.{i}.mlp1", f"block.{i}.mlp2"]


def _mlp_affines(i: int) -> list[str]:
    return [f"block.{i}.mlp1", f"block.{i}.mlp2"]


@dataclass
class ViTParams:
    config: ViTConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)
    lora: dict[str, tuple[Tensor, Tensor]] = field(default_factory=dict)

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def copy(self) -> "ViTParams":
        p = ViTParams(self.config)
        p.tensors = {k: Tensor(v.data.copy()) for k, v in self.tensors.items()}
        p.lora = {k: (Tensor(a.data.copy()), Tensor(b.data.copy()))
                  for k, (a, b) in self.lora.items()}
        return p

    def all_entries(self) -> dict[str, Tensor]:
        """Flat name -> Tensor view including adapter factors."""
        out = dict(self.tensors)
        for site, (a, b) in self.lora.items():
            out[f"{site}.lora_a"] = a
            out[f"{site}.lora_b"] = b
        return out


def affine_shapes(config: ViTConfig) -> dict[str, tuple[int, int]]:
    """(in, out) shape of every affine map, keyed by parameter base name."""
    c, h = config.embed_dim, config.mlp_hidden
    shapes = {"embed": (config.patch_dim, c)}
    for i in range(1, config.depth + 1):
        shapes[f"block.{i}.qkv"] = (c, 3 * c)
        shapes[f"block.{i}.proj"] = (c, c)
        shapes[f"block.{i}.mlp1"] = (c, h)
        shapes[f"block.{i}.mlp2"] = (h, c)
    return shapes


def init_params(config: ViTConfig, seed: int = 0, scale: float = 0.02) -> ViTParams:
    rng = np.random.default_rng(seed)
    p = ViTParams(config)
    t = p.tensors
    for name, (din, dout) in affine_shapes(config).items():
        t[f"{name}.w"] = Tensor(rng.normal(0.0, scale, (din, dout)))
        t[f"{name}.b"] = Tensor(np.zeros(dout))
    t["pos"] = Tensor(rng.normal(0.0, scale, (config.tokens, config.embed_dim)))
    for i in range(1, config.depth + 1):
        for ln in ("ln1", "ln2"):
            t[f"block.{i}.{ln}.g"] = Tensor(np.ones(config.embed_dim))
            t[f"block.{i}.{ln}.b"] = Tensor(np.zeros(config.embed_dim))
    return p


def apply_lora(params: ViTParams, rank: int, sites: list[str],
               seed: int = 0, init_scale: float = 0.01) -> ViTParams:
    """Attach additive low-rank adapters to the given affine maps.

    A is small-random (r, in), B is zero (out, r), so the function computed
    by the model is unchanged until training moves B. Base weights at
    adapted sites are frozen by the trainability marking (see mark_trainable).
    """
    if rank < 1:
        raise ValueError("lora rank must be >= 1")
    shapes = affine_shapes(params.config)
    rng = np.random.default_rng(seed)
    out = params.copy()
    for site in sites:
        if site not in shapes:
            raise ValueError(f"invalid lora site: {site}")
        din, dout = shapes[site]
        a = Tensor(rng.normal(0.0, init_scale, (rank, din)))
        b = Tensor(np.zeros((dout, rank)))
        out.lora[site] = (a, b)
    return out


def lora_sites_for(config: ViTConfig, kind: str, layers) -> list[str]:
    if kind == "mlps":
        return [n for i in layers for n in _mlp_affines(i)]
    if kind == "blocks":
        return [n for i in layers for n in _block_affines(i)]
    raise ValueError(f"unknown lora site kind: {kind}")


def trainable_names(config: ViTConfig, plan: TrainablePlan) -> list[str]:
    """Names of trainable entries (weights/biases, or adapter factors)."""
    plan.validate(config)
    embed = ["embed.w", "embed.b"]
    if plan.mode == "none":
        return []
    if plan.mode == "embed":
        return embed
    if plan.mode == "embed+mlps":
        return embed + [f"{n}.{s}" for i in plan.layers
                        for n in _mlp_affines(i) for s in ("w", "b")]
    if plan.mode == "embed+all_mlps":
        return embed + [f"{n}.{s}" for i in range(1, config.depth + 1)
                        for n in _mlp_affines(i) for s in ("w", "b")]
    if plan.mode == "embed+blocks":
        names = list(embed)
        for i in plan.layers:
            for n in _block_affines(i):
                names += [f"{n}.w", f"{n}.b"]
            for ln in ("ln1", "ln2"):
                names += [f"block.{i}.{ln}.g", f"block.{i}.{ln}.b"]
        return names
    if plan.mode == "all":
        names = ["pos"] + embed
        for i in range(1, config.depth + 1):
            for n in _block_affines(i):
                names += [f"{n}.w", f"{n}.b"]
            for ln in ("ln1", "ln2"):
                names += [f"block.{i}.{ln}.g", f"block.{i}.{ln}.b"]
        return names
    # lora: embed fully trainable, adapter factors at the sites
    sites = lora_sites_for(config, *plan.lora_sites)
    return embed + [f"{s}.lora_a" for s in sites] + [f"{s}.lora_b" for s in sites]


def count_trainable(config: ViTConfig, plan: TrainablePlan) -> int:
    """Exact number of scalars trainable under the plan."""
    plan.validate(config)
    shapes = affine_shapes(config)
    c = config.embed_dim

    def affine_count(name):
        din, dout = shapes[name]
        return din * dout + dout

    if plan.mode == "lora":
        sites = lora_sites_for(config, *plan.lora_sites)
        n = affine_count("embed")
        for s in sites:
            din, dout = shapes[s]
            n += plan.lora_rank * (din + dout)
        return n

    total = 0
    for name in trainable_names(config, plan):
        if name == "pos":
            total += config.tokens * c
        elif name.endswith(".g") or name.endswith(".b") and ".ln" in name:
            total += c
        else:
            base, leaf = name.rsplit(".", 1)
            din, dout = shapes[base]
            total += din * dout if leaf == "w" else dout
    return total


def mark_trainable(params: ViTParams, plan: TrainablePlan):
    """Set requires_grad exactly on the plan's entries; clears all others."""
    wanted = set(trainable_names(params.config, plan))
    for name, t in params.all_entries().items():
        t.requires_grad = name in wanted
        t.grad = None
    missing = wanted - set(params.all_entries())
    if missing:
        raise ValueError(f"plan references absent parameters: {sorted(missing)}")


@dataclass
class EmbeddingCapture:
    embeddings: list[Tensor]        # X^(0) .. X^(n), each (k, c)
    attentions: list[np.ndarray]    # head-averaged A^(1) .. A^(n), each (k, k)


def _effective_weight(params: ViTParams, site: str) -> Tensor:
    w = params.tensors[f"{site}.w"]
    if site in params.lora:
        a, b = params.lora[site]
        w = w + matmul(b, a).T
    return w


def _affine(params: ViTParams, site: str, x: Tensor) -> Tensor:
    return matmul(x, _effective_weight(params, site)) + params.tensors[f"{site}.b"]


def patch_tokens(config: ViTConfig, image: np.ndarray) -> np.ndarray:
    """Rearrange an (H, W, C) image into (k, patch_dim) row-major patches."""
    H = W = config.img_size
    ps, g = config.patch_size, config.grid
    if image.shape != (H, W, config.in_channels):
        raise ValueError(f"input shape {image.shape} does not match config")
    x = image.reshape(g, ps, g, ps, config.in_channels)
    x = x.transpose(0, 2, 1, 3, 4).reshape(config.tokens, config.patch_dim)
    return x


def embed_image(params: ViTParams, image: np.ndarray) -> Tensor:
    """Patch projection plus positional embedding: the X^(0) tokens."""
    patches = Tensor(patch_tokens(params.config, image))
    return _affine(params, "embed", patches) + params.tensors["pos"]


def _attention(params: ViTParams, i: int, x: Tensor):
    cfg = params.config
    k, c, nh = cfg.tokens, cfg.embed_dim, cfg.num_heads
    dh = c // nh
    qkv = _affine(params, f"block.{i}.qkv", x)            # (k, 3c)
    qkv = qkv.reshape(k, 3, nh, dh).transpose((1, 2, 0, 3))  # (3, nh, k, dh)
    q, kk, v = qkv[0], qkv[1], qkv[2]
    logits = matmul(q, kk.transpose((0, 2, 1))) * (1.0 / np.sqrt(dh))
    attn = softmax_rows(logits)                            # (nh, k, k)
    head_avg = attn.data.mean(axis=0)
    out = matmul(attn, v)                                  # (nh, k, dh)
    out = out.transpose((1, 0, 2)).reshape(k, c)
    out = _affine(params, f"block.{i}.proj", out)
    return out, head_avg, attn


def forward_tokens(params: ViTParams, tokens: Tensor) -> EmbeddingCapture:
    """Run the transformer blocks on prepared X^(0) tokens."""
    cfg = params.config
    if tokens.shape != (cfg.tokens, cfg.embed_dim):
        raise ValueError(
            f"token shape {tokens.shape} does not match config "
            f"({cfg.tokens}, {cfg.embed_dim})")
    x = tokens
    embeddings = [x]
    attentions = []
    for i in range(1, cfg.depth + 1):
        t = params.tensors
        h = layernorm(x, t[f"block.{i}.ln1.g"], t[f"block.{i}.ln1.b"])
        a_out, head_avg, _ = _attention(params, i, h)
        x = x + a_out
        h = layernorm(x, t[f"block.{i}.ln2.g"], t[f"block.{i}.ln2.b"])
        m = _affine(params, f"block.{i}.mlp2", gelu(_affine(params, f"block.{i}.mlp1", h)))
        x = x + m
        embeddings.append(x)
        attentions.append(head_avg)
    return EmbeddingCapture(embeddings=embeddings, attentions=attentions)


def forward_capture(params: ViTParams, image: np.ndarray) -> EmbeddingCapture:
    """Full forward from an (H, W, C) input, capturing every layer."""
    return forward_tokens(params, embed_image(params, image))
