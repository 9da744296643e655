"""Transformer encoders and MLP heads.

The weight store holds one shared video encoder (used by pretraining and by
every summarizer stage), a small trainable text encoder standing in for a
frozen language model, the recovery-window transformer, and all projection
heads.  Canonical tensor names are documented in NAMES.md.

Block layout (fixed so checkpoints stay stable): pre-layer-norm attention
and feed-forward blocks with residual connections, GELU in the FFN, and a
final layer norm after the last block.  A zero-layer stack is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensorkit as tk
from .errors import CapacityError, ConfigError, ContractError, DimensionError, VocabularyError
from .tensorkit import Tensor

PAD_ID = 0
CLS_ID = 1
SEP_ID = 2
UNK_ID = 3


@dataclass(frozen=True)
class EncoderConfig:
    """Network extents. Paper-scale values in comments; defaults are desk scale."""

    d_f: int = 64  # frame-feature width (paper: 1024)
    d_w: int = 32  # word-embedding width (paper: 768)
    video_layers: int = 3  # paper: 3
    text_layers: int = 2  # desk stand-in for a frozen 12-layer LM
    heads: int = 4  # paper: 8
    ffn_dim: int = 0  # 0 means 4 * width
    vocab_size: int = 64
    max_positions: int = 512

    def __post_init__(self):
        for name in ("d_f", "d_w", "video_layers", "text_layers", "heads",
                     "vocab_size", "max_positions"):
            if getattr(self, name) < (0 if name.endswith("layers") else 1):
                raise ConfigError(f"EncoderConfig.{name} must be positive")
        if self.d_f % self.heads or self.d_w % self.heads:
            raise ConfigError(
                f"widths d_f={self.d_f}, d_w={self.d_w} must be divisible by heads={self.heads}"
            )

    def ffn(self, d):
        return self.ffn_dim if self.ffn_dim else 4 * d


def positional_encoding(n, d, max_positions):
    """Fixed sinusoidal position table of shape (n, d)."""
    if n > max_positions:
        raise CapacityError(f"sequence length {n} exceeds max_positions {max_positions}")
    pos = np.arange(n, dtype=np.float64)[:, None]
    k = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (k // 2) / d)
    table = np.where(k % 2 == 0, np.sin(angle), np.cos(angle))
    return Tensor(table)


# ---------------------------------------------------------------------------
# Weight store


def _layer_names(prefix, i, d, ffn):
    base = f"{prefix}.layer{i}"
    return {
        f"{base}.attn.wq": (d, d),
        f"{base}.attn.bq": (d,),
        f"{base}.attn.wk": (d, d),
        f"{base}.attn.bk": (d,),
        f"{base}.attn.wv": (d, d),
        f"{base}.attn.bv": (d,),
        f"{base}.attn.wo": (d, d),
        f"{base}.attn.bo": (d,),
        f"{base}.ln1.g": (d,),
        f"{base}.ln1.b": (d,),
        f"{base}.ln2.g": (d,),
        f"{base}.ln2.b": (d,),
        f"{base}.ffn.w1": (d, ffn),
        f"{base}.ffn.b1": (ffn,),
        f"{base}.ffn.w2": (ffn, d),
        f"{base}.ffn.b2": (d,),
    }


def _stack_names(prefix, layers, d, ffn):
    names = {}
    for i in range(layers):
        names.update(_layer_names(prefix, i, d, ffn))
    if layers:
        names[f"{prefix}.ln_f.g"] = (d,)
        names[f"{prefix}.ln_f.b"] = (d,)
    return names


def _mlp_names(prefix, widths):
    names = {}
    for i in range(len(widths) - 1):
        names[f"{prefix}.w{i}"] = (widths[i], widths[i + 1])
        names[f"{prefix}.b{i}"] = (widths[i + 1],)
    return names


def mlp_widths(cfg):
    """Hidden widths of the three heads (the source is silent; one fixed choice)."""
    return {
        "mlp_cls": [cfg.d_f + cfg.d_w, cfg.d_f, max(cfg.d_f // 2, 1), 1],
        "mlp_t": [cfg.d_w, cfg.d_f, cfg.d_f],
        "mlp_s": [cfg.d_f, max(cfg.d_f // 4, 1), 1],
    }


def parameter_shapes(cfg, stages):
    """Canonical name -> shape map for a model with the given stage count."""
    shapes = {}
    shapes.update(_stack_names("ev", cfg.video_layers, cfg.d_f, cfg.ffn(cfg.d_f)))
    shapes.update(_stack_names("et", cfg.text_layers, cfg.d_w, cfg.ffn(cfg.d_w)))
    shapes.update(_stack_names("tv", 1, cfg.d_f, cfg.ffn(cfg.d_f)))
    shapes["embed.word"] = (cfg.vocab_size, cfg.d_w)
    shapes["cls_feature"] = (cfg.d_f,)
    shapes["mask_token"] = (cfg.d_f,)
    shapes["w1"] = (cfg.d_f, cfg.d_f)
    shapes["w2"] = (cfg.d_f, cfg.d_f)
    for prefix, widths in mlp_widths(cfg).items():
        shapes.update(_mlp_names(prefix, widths))
    for n in range(1, stages + 1):
        shapes[f"head.stage{n}.w"] = (cfg.d_f, 1)
        shapes[f"head.stage{n}.b"] = (1,)
    return shapes


def expected_param_count(cfg, stages):
    """Closed-form total parameter count for the given configuration."""

    def stack(layers, d):
        ffn = cfg.ffn(d)
        per = 4 * (d * d + d) + 4 * d + 2 * (d * ffn) + ffn + d
        return layers * per + (2 * d if layers else 0)

    total = stack(cfg.video_layers, cfg.d_f)
    total += stack(cfg.text_layers, cfg.d_w)
    total += stack(1, cfg.d_f)
    total += cfg.vocab_size * cfg.d_w
    total += 2 * cfg.d_f  # cls_feature, mask_token
    total += 2 * cfg.d_f * cfg.d_f  # w1, w2
    for widths in mlp_widths(cfg).values():
        for a, b in zip(widths, widths[1:]):
            total += a * b + b
    total += stages * (cfg.d_f + 1)
    return total


class ModelWeights:
    """Named-tensor store for all learnable parameters."""

    def __init__(self, cfg, stages, params):
        self.cfg = cfg
        self.stages = stages
        self.params = params

    @classmethod
    def initialize(cls, cfg, stages, rng):
        """Fresh weights; every tensor drawn from a named sub-stream."""
        params = {}
        for name, shape in parameter_shapes(cfg, stages).items():
            stream = rng.substream(f"init/{name}")
            leaf = name.rsplit(".", 1)[-1]
            if leaf in ("g",):  # layer-norm gains
                params[name] = Tensor(np.ones(shape), requires_grad=True)
            elif leaf.startswith("b"):  # all biases (and layer-norm shifts)
                params[name] = Tensor(np.zeros(shape), requires_grad=True)
            elif name in ("cls_feature", "mask_token"):
                params[name] = tk.uniform_init(stream, shape, cfg.d_f)
            elif name == "embed.word":
                params[name] = tk.uniform_init(stream, shape, cfg.d_w)
            else:
                params[name] = tk.uniform_init(stream, shape, shape[0])
        return cls(cfg, stages, params)

    def __getitem__(self, name):
        return self.params[name]

    def names(self):
        return sorted(self.params)

    def param_count(self):
        return sum(p.data.size for p in self.params.values())

    def trainable(self):
        return {k: p for k, p in self.params.items() if p.requires_grad}

    def detached(self):
        """The same arrays, not copied, with requires_grad off: forward
        passes on this view build no autodiff graph."""
        return ModelWeights(
            self.cfg, self.stages, {k: Tensor(p.data) for k, p in self.params.items()}
        )

    def save(self, path):
        tk.save_checkpoint(path, self.params)

    @classmethod
    def load(cls, path, cfg, stages):
        arrays = tk.load_checkpoint(path)
        expected = parameter_shapes(cfg, stages)
        missing = sorted(set(expected) - set(arrays))
        if missing:
            raise ContractError(f"checkpoint missing tensors: {missing[:5]}")
        params = {}
        for name, shape in expected.items():
            arr = arrays[name]
            if tuple(arr.shape) != tuple(shape):
                raise DimensionError(
                    f"checkpoint tensor {name}: shape {arr.shape}, expected {shape}"
                )
            params[name] = Tensor(arr, requires_grad=True)
        return cls(cfg, stages, params)

    def load_pretrained(self, path):
        """Copy pretrained encoder/head tensors; stage heads stay fresh."""
        arrays = tk.load_checkpoint(path)
        loaded = []
        for name, p in self.params.items():
            if name.startswith("head.stage"):
                continue
            if name in arrays and tuple(arrays[name].shape) == p.data.shape:
                p.data = arrays[name].copy()
                loaded.append(name)
        if not loaded:
            raise ContractError(f"{path}: no matching tensors to load")
        return loaded

    def freeze_text_encoder(self):
        """Stop gradient flow into the text encoder and word embeddings."""
        for name, p in self.params.items():
            if name.startswith("et.") or name == "embed.word":
                p.requires_grad = False


# ---------------------------------------------------------------------------
# Forward passes


def _linear(x, w, b):
    return tk.add(tk.matmul(x, w), b)


def _attention(x, w, prefix, heads, mask_bias):
    T, d = x.data.shape
    dh = d // heads
    q = _linear(x, w[f"{prefix}.attn.wq"], w[f"{prefix}.attn.bq"])
    k = _linear(x, w[f"{prefix}.attn.wk"], w[f"{prefix}.attn.bk"])
    v = _linear(x, w[f"{prefix}.attn.wv"], w[f"{prefix}.attn.bv"])
    outs = []
    for h in range(heads):
        qh = tk.narrow(q, h * dh, dh, axis=1)
        kh = tk.narrow(k, h * dh, dh, axis=1)
        vh = tk.narrow(v, h * dh, dh, axis=1)
        scores = tk.scale(tk.matmul(qh, tk.transpose(kh)), 1.0 / math.sqrt(dh))
        if mask_bias is not None:
            scores = tk.add(scores, mask_bias)
        attn = tk.softmax_rows(scores)
        outs.append(tk.matmul(attn, vh))
    merged = tk.concat(outs, axis=1)
    return _linear(merged, w[f"{prefix}.attn.wo"], w[f"{prefix}.attn.bo"])


def encoder_stack(x, w, prefix, layers, heads, key_mask=None):
    """Pre-LN transformer stack; `key_mask` is a bool array (True = attend)."""
    mask_bias = None
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        if key_mask.shape != (x.data.shape[0],):
            raise DimensionError(
                f"key_mask length {key_mask.shape} does not match sequence {x.data.shape[0]}"
            )
        if not key_mask.all():
            mask_bias = Tensor(np.where(key_mask, 0.0, -1e30)[None, :])
    h = x
    for i in range(layers):
        base = f"{prefix}.layer{i}"
        a = tk.layer_norm_rows(h, w[f"{base}.ln1.g"], w[f"{base}.ln1.b"])
        h = tk.add(h, _attention(a, w, base, heads, mask_bias))
        f = tk.layer_norm_rows(h, w[f"{base}.ln2.g"], w[f"{base}.ln2.b"])
        f = tk.gelu(_linear(f, w[f"{base}.ffn.w1"], w[f"{base}.ffn.b1"]))
        f = _linear(f, w[f"{base}.ffn.w2"], w[f"{base}.ffn.b2"])
        h = tk.add(h, f)
    if layers:
        h = tk.layer_norm_rows(h, w[f"{prefix}.ln_f.g"], w[f"{prefix}.ln_f.b"])
    return h


def encode_video(w, F, prepend_cls):
    """Encode a T-by-d_f frame sequence; optionally prepend the CLS feature.

    Pretraining prepends CLS and reads g_0 as the sequence representation;
    the summarizer does not.  Positions cover the full (CLS-extended) input.
    """
    cfg = w.cfg
    if F.data.ndim != 2 or F.data.shape[1] != cfg.d_f:
        raise DimensionError(f"encode_video: expected (T, {cfg.d_f}), got {F.data.shape}")
    x = F
    if prepend_cls:
        x = tk.concat([tk.reshape(w["cls_feature"], (1, cfg.d_f)), x], axis=0)
    pos = positional_encoding(x.data.shape[0], cfg.d_f, cfg.max_positions + 1)
    x = tk.add(x, pos)
    return encoder_stack(x, w, "ev", cfg.video_layers, cfg.heads)


def encode_text(w, token_ids):
    """Encode a token sequence (CLS already at position 0); pads are masked."""
    cfg = w.cfg
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size < 1:
        raise ContractError("encode_text expects a nonempty 1-D token id list")
    if ids[0] != CLS_ID:
        raise ContractError("token sequence must start with [CLS]")
    if np.any(ids < 0) or np.any(ids >= cfg.vocab_size):
        raise VocabularyError(
            f"token id out of range for vocab_size {cfg.vocab_size}"
        )
    x = tk.gather_rows(w["embed.word"], ids)
    pos = positional_encoding(ids.size, cfg.d_w, cfg.max_positions + 1)
    x = tk.add(x, pos)
    key_mask = ids != PAD_ID
    return encoder_stack(x, w, "et", cfg.text_layers, cfg.heads, key_mask=key_mask)


def _mlp(w, prefix, x, n_layers, final):
    h = x
    for i in range(n_layers):
        h = _linear(h, w[f"{prefix}.w{i}"], w[f"{prefix}.b{i}"])
        if i < n_layers - 1:
            h = tk.relu(h)
    if final == "sigmoid":
        h = tk.sigmoid(h)
    return h


def mlp_cls(w, g0, z0):
    """Correspondence probability from concatenated sequence representations."""
    x = tk.concat([g0, z0], axis=1)
    if x.data.shape[1] != w.cfg.d_f + w.cfg.d_w:
        raise DimensionError(
            f"mlp_cls: expected width {w.cfg.d_f + w.cfg.d_w}, got {x.data.shape[1]}"
        )
    return _mlp(w, "mlp_cls", x, 3, final="sigmoid")


def mlp_t(w, z):
    """Map word-space vectors into the visual space (linear output)."""
    if z.data.shape[1] != w.cfg.d_w:
        raise DimensionError(f"mlp_t: expected width {w.cfg.d_w}, got {z.data.shape[1]}")
    return _mlp(w, "mlp_t", z, 2, final="linear")


def mlp_s(w, g):
    """Smooth-transition probability from an encoded frame feature."""
    if g.data.shape[1] != w.cfg.d_f:
        raise DimensionError(f"mlp_s: expected width {w.cfg.d_f}, got {g.data.shape[1]}")
    return _mlp(w, "mlp_s", g, 2, final="sigmoid")
