"""Self-supervised pretraining: correspondence, set-distance, frame recovery.

Three objectives share one encoding pass per sample:

* coarse correspondence -- BCE on the CLS-vs-CLS pairing probability,
* fine correspondence -- margin loss on the Hausdorff distance between the
  encoded frame set and the word set mapped into the visual space,
* masked-frame recovery -- MSE on a blend of a local window prediction and
  a global-context prediction, gated by a learned smoothness probability.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import encoders, tensorkit as tk
from .encoders import CLS_ID, PAD_ID, SEP_ID
from .errors import ConfigError, ContractError, NumericsError
from .tensorkit import Tensor


@dataclass
class SSLConfig:
    margin: float = math.sqrt(2.0)  # paper default
    window_radius: int = 4  # paper default
    alpha: float = 1.0  # paper default
    beta: float = 5.0  # paper default
    crop_len: int = 256  # paper default
    negative_prob: float = 0.5  # paper default
    lr: float = 1e-6  # paper default; desk runs use a larger rate
    batch_size: int = 8  # paper default
    steps: int = 2000
    log_every: int = 25
    checkpoint_every: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        if self.margin <= 0:
            raise ConfigError("margin must be positive")
        if not 0.0 <= self.negative_prob <= 1.0:
            raise ConfigError("negative_prob must be in [0, 1]")
        if self.crop_len < 2 * self.window_radius + 1:
            raise ConfigError("crop_len must be at least 2*window_radius + 1")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")


@dataclass
class PairSample:
    video: np.ndarray  # (T, d_f) cropped frame features
    token_ids: list  # assembled token stream, CLS at position 0
    y: int  # 1 iff the text belongs to this video
    video_id: str = ""
    text_id: str = ""


def sample_pair(corpus, rng, cfg):
    """Draw one (video, text, label) sample.

    `corpus` is a list of (video_id, features, token_ids) triples.  The text
    is swapped corpus-wide with probability negative_prob, never with the
    same video's own text.
    """
    if len(corpus) < 2 and cfg.negative_prob > 0:
        raise ConfigError("negative sampling requires a corpus of at least 2 videos")
    i = rng.randint(len(corpus))
    vid, feats, tokens = corpus[i]
    T = feats.shape[0]
    if T > cfg.crop_len:
        start = rng.randint(T - cfg.crop_len + 1)
        feats = feats[start : start + cfg.crop_len]
    y = 1
    text_id = vid
    if cfg.negative_prob > 0 and rng.uniform() < cfg.negative_prob:
        j = rng.randint(len(corpus) - 1)
        if j >= i:
            j += 1
        text_id, _, tokens = corpus[j]
        y = 0
    return PairSample(video=feats, token_ids=tokens, y=y, video_id=vid, text_id=text_id)


def coarse_loss(w, g0, z0, y):
    """BCE on the pairing probability; returns (loss tensor, p_c value)."""
    p = encoders.mlp_cls(w, g0, z0)
    p = tk.clip(p, 1e-7, 1.0 - 1e-7)
    p = tk.reshape(p, ())
    if y == 1:
        loss = tk.neg(tk.log(p))
    else:
        loss = tk.neg(tk.log(tk.sub(1.0, p)))
    return loss, float(p.data)


def hausdorff_distance(g_set, z_mapped):
    """Symmetric Hausdorff distance between two row sets of unit vectors.

    Rows are L2-normalized inside.  The value is computed numerically to
    locate the max/min selections and then rebuilt symbolically through the
    selected pair only, which is the subgradient of the piecewise-smooth
    objective.
    """
    if g_set.data.ndim != 2 or z_mapped.data.ndim != 2:
        raise ContractError("hausdorff_distance expects two matrices")
    if g_set.data.shape[0] == 0 or z_mapped.data.shape[0] == 0:
        raise ContractError("hausdorff_distance over an empty set")
    if g_set.data.shape[1] != z_mapped.data.shape[1]:
        raise ContractError(
            f"member widths differ: {g_set.data.shape[1]} vs {z_mapped.data.shape[1]}"
        )

    def _unit(a):
        n = np.sqrt((a**2).sum(axis=1, keepdims=True))
        return a / np.maximum(n, 1e-300)

    gu = _unit(g_set.data)
    zu = _unit(z_mapped.data)
    # D[t, i] = |gu_t - zu_i|
    sq = np.maximum(
        (gu**2).sum(1)[:, None] + (zu**2).sum(1)[None, :] - 2.0 * gu @ zu.T, 0.0
    )
    D = np.sqrt(sq)
    mins_g = D.min(axis=1)
    t_star = int(mins_g.argmax())
    i_for_t = int(D[t_star].argmin())
    mins_z = D.min(axis=0)
    i_star = int(mins_z.argmax())
    t_for_i = int(D[:, i_star].argmin())

    if mins_g[t_star] >= mins_z[i_star]:
        t_sel, i_sel = t_star, i_for_t
    else:
        t_sel, i_sel = t_for_i, i_star

    u = tk.l2_normalize_rows(tk.narrow(g_set, t_sel, 1))
    v = tk.l2_normalize_rows(tk.narrow(z_mapped, i_sel, 1))
    diff = tk.sub(u, v)
    return tk.reshape(tk.sqrt(tk.tsum(tk.mul(diff, diff))), ())


def fine_loss(d_h, y, margin):
    """Contrastive set loss: y*d^2 + (1-y)*max(0, m - d^2)."""
    d_sq = tk.mul(d_h, d_h)
    if y == 1:
        return d_sq
    return tk.relu(tk.sub(margin, d_sq))


def mask_frame(w, F, rng):
    """Replace one uniformly chosen frame with the learnable mask token.

    Returns (masked sequence, masked index, original frame as a constant).
    """
    T, d_f = F.data.shape
    if T < 1:
        raise ContractError("mask_frame needs at least one frame")
    t = int(rng.randint(T))
    target = Tensor(F.data[t].copy().reshape(1, d_f))
    rows = []
    if t > 0:
        rows.append(tk.narrow(F, 0, t))
    rows.append(tk.reshape(w["mask_token"], (1, d_f)))
    if t < T - 1:
        rows.append(tk.narrow(F, t + 1, T - 1 - t))
    return tk.concat(rows, axis=0), t, target


def recover_frame(w, F_masked, G, t, k):
    """Blend a local-window prediction with a global-context prediction.

    The window is 2k+1 raw rows of the masked sequence centered at t,
    zero-padded outside [0, T); G carries CLS at row 0, so the encoded
    masked feature sits at offset t+1.
    """
    T, d_f = F_masked.data.shape
    lo, hi = t - k, t + k + 1
    rows = []
    if lo < 0:
        rows.append(Tensor(np.zeros((-lo, d_f))))
    rows.append(tk.narrow(F_masked, max(lo, 0), min(hi, T) - max(lo, 0)))
    if hi > T:
        rows.append(Tensor(np.zeros((hi - T, d_f))))
    window = tk.concat(rows, axis=0) if len(rows) > 1 else rows[0]
    pos = encoders.positional_encoding(2 * k + 1, d_f, w.cfg.max_positions + 1)
    R = encoders.encoder_stack(tk.add(window, pos), w, "tv", 1, w.cfg.heads)
    r_c = tk.narrow(R, k, 1)
    g_t = tk.narrow(G, t + 1, 1)
    p_s = tk.reshape(encoders.mlp_s(w, g_t), ())
    f1 = tk.matmul(r_c, w["w1"])
    f2 = tk.matmul(g_t, w["w2"])
    f_hat = tk.add(tk.mul(f1, p_s), tk.mul(f2, tk.sub(1.0, p_s)))
    return f_hat, p_s


def recovery_loss(f_hat, f_t, d_f):
    """Mean squared error over the d_f feature components."""
    diff = tk.sub(f_hat, f_t)
    return tk.scale(tk.tsum(tk.mul(diff, diff)), 1.0 / d_f)


def word_token_rows(token_ids):
    """Indices of real word tokens (CLS/SEP/PAD excluded)."""
    ids = np.asarray(token_ids)
    return np.flatnonzero(~np.isin(ids, (PAD_ID, CLS_ID, SEP_ID)))


def ssl_forward(w, sample, cfg, rng):
    """All three objectives for one sample; one video encoding is shared."""
    F = Tensor(sample.video)
    F_masked, t, f_t = mask_frame(w, F, rng)
    G = encoders.encode_video(w, F_masked, prepend_cls=True)
    T = sample.video.shape[0]
    g0 = tk.narrow(G, 0, 1)
    g_rows = tk.narrow(G, 1, T)

    Z = encoders.encode_text(w, sample.token_ids)
    z0 = tk.narrow(Z, 0, 1)
    word_rows = word_token_rows(sample.token_ids)
    if word_rows.size == 0:
        raise ContractError("sample text contains no word tokens")
    z_words = tk.concat([tk.narrow(Z, int(i), 1) for i in word_rows], axis=0)

    l1, p_c = coarse_loss(w, g0, z0, sample.y)
    d_h = hausdorff_distance(g_rows, encoders.mlp_t(w, z_words))
    l2 = fine_loss(d_h, sample.y, cfg.margin)
    f_hat, p_s = recover_frame(w, F_masked, G, t, cfg.window_radius)
    l3 = recovery_loss(f_hat, f_t, w.cfg.d_f)
    total = tk.add(l1, tk.add(tk.scale(l2, cfg.alpha), tk.scale(l3, cfg.beta)))
    return {
        "total": total,
        "l1": l1,
        "l2": l2,
        "l3": l3,
        "p_c": p_c,
        "p_s": float(p_s.data),
        "y": sample.y,
    }


def ssl_step(batch, w, opt, cfg, rng):
    """Average the combined loss over a batch and take one Adam step."""
    outs = [ssl_forward(w, s, cfg, rng) for s in batch]
    total = tk.scale(
        tk.tsum(tk.concat([tk.reshape(o["total"], (1,)) for o in outs], axis=0)),
        1.0 / len(outs),
    )
    if not np.isfinite(total.data):
        dump = [(float(o["l1"].data), float(o["l2"].data), float(o["l3"].data)) for o in outs]
        raise NumericsError(f"non-finite combined loss; per-sample (l1, l2, l3): {dump}")
    opt.zero_grad()
    tk.backward(total)
    opt.step()
    correct = sum(1 for o in outs if (o["p_c"] >= 0.5) == (o["y"] == 1))
    return {
        "total": float(total.data),
        "l1": float(np.mean([o["l1"].data for o in outs])),
        "l2": float(np.mean([o["l2"].data for o in outs])),
        "l3": float(np.mean([o["l3"].data for o in outs])),
        "pc_acc": correct / len(outs),
    }


def pretrain(corpus, w, cfg, rng, out_dir=None, log_path=None):
    """Run the pretraining loop; emits a JSON-lines log and checkpoints."""
    opt = tk.Adam(w.trainable(), lr=cfg.lr)
    sample_rng = rng.substream("ssl/sampling")
    mask_rng = rng.substream("ssl/masking")
    log_fh = open(log_path, "w") if log_path else None
    history = []
    try:
        for step in range(1, cfg.steps + 1):
            batch = [sample_pair(corpus, sample_rng, cfg) for _ in range(cfg.batch_size)]
            report = ssl_step(batch, w, opt, cfg, mask_rng)
            report["step"] = step
            history.append(report)
            if log_fh and (step % cfg.log_every == 0 or step == cfg.steps):
                log_fh.write(json.dumps(report) + "\n")
                log_fh.flush()
            if out_dir and cfg.checkpoint_every and step % cfg.checkpoint_every == 0:
                w.save(os.path.join(out_dir, f"step{step:06d}.ck"))
        if out_dir:
            w.save(os.path.join(out_dir, "final.ck"))
    finally:
        if log_fh:
            log_fh.close()
    return history


def correspondence_accuracy(corpus, w, cfg, rng, n_pairs=200):
    """Held-out accuracy of the coarse correspondence head, graph-free."""
    w = w.detached()
    correct = 0
    for _ in range(n_pairs):
        s = sample_pair(corpus, rng, cfg)
        G = encoders.encode_video(w, Tensor(s.video), prepend_cls=True)
        Z = encoders.encode_text(w, s.token_ids)
        _, p_c = coarse_loss(w, tk.narrow(G, 0, 1), tk.narrow(Z, 0, 1), s.y)
        if (p_c >= 0.5) == (s.y == 1):
            correct += 1
    return correct / n_pairs
