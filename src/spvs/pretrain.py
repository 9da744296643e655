"""Self-supervised pretraining: correspondence, set-distance, frame recovery.

Three objectives share one batched encoding pass per optimizer step:

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
from dataclasses import dataclass

import numpy as np

from . import encoders, tensorkit as tk
from .encoders import CLS_ID, PAD_ID, SEP_ID
from .errors import ConfigError, ContractError, check_field_types
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
        check_field_types(self)
        if self.margin <= 0:
            raise ConfigError("margin must be positive")
        if not 0.0 <= self.negative_prob <= 1.0:
            raise ConfigError("negative_prob must be in [0, 1]")
        if self.crop_len < 2 * self.window_radius + 1:
            raise ConfigError("crop_len must be at least 2*window_radius + 1")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


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
    """BCE on the pairing probability; returns (loss tensor, p_c values).

    Rank-generic: g0 (..., 1, d_f) and z0 (..., 1, d_w) hold one pair per
    label in y (an int for one sample).  The loss is -log(q) with
    q = (1 - y) + (2y - 1) p, which is exactly p for y = 1 and 1 - p for
    y = 0.
    """
    y = np.asarray(y, dtype=np.float64)
    p = encoders.mlp_cls(w, g0, z0)
    p = tk.clip(p, 1e-7, 1.0 - 1e-7)
    p = tk.reshape(p, y.shape)
    q = tk.add(1.0 - y, tk.mul(2.0 * y - 1.0, p))
    return tk.neg(tk.log(q)), p.data


def _take_rows(x, rows):
    """Row gather per leading index: x is (..., T, d) and rows an int array
    (..., m) of row numbers; returns (..., m, d)."""
    *lead, T, d = x.data.shape
    offset = np.arange(int(np.prod(lead)), dtype=np.int64).reshape(lead) * T
    return tk.gather_rows(tk.reshape(x, (-1, d)), offset[..., None] + rows)


def _hausdorff_pair(g, z):
    """(t, i): rows of g and z whose unit vectors are the symmetric
    Hausdorff distance apart."""

    def _unit(a):
        n = np.sqrt((a**2).sum(axis=1, keepdims=True))
        return a / np.maximum(n, 1e-300)

    gu = _unit(g)
    zu = _unit(z)
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
        return t_star, i_for_t
    return t_for_i, i_star


def hausdorff_distance(g_set, z_mapped, z_rows=None):
    """Symmetric Hausdorff distance between two row sets of unit vectors.

    Rank-generic: g_set (..., T, d) and z_mapped (..., N, d) hold one pair
    of sets per leading index, and the result has the leading shape.
    `z_rows`, when given, lists per leading index (in C order) the rows of
    z_mapped that belong to the set; by default all rows do.  Rows are
    L2-normalized inside.  The value is computed numerically to locate the
    max/min selections and then rebuilt symbolically through the selected
    pair only, which is the subgradient of the piecewise-smooth objective.
    """
    if g_set.data.ndim < 2 or g_set.data.ndim != z_mapped.data.ndim:
        raise ContractError("hausdorff_distance expects two matrices or two stacks of them")
    lead = g_set.data.shape[:-2]
    if z_mapped.data.shape[:-2] != lead:
        raise ContractError(
            f"set stacks differ: {g_set.data.shape[:-2]} vs {z_mapped.data.shape[:-2]}"
        )
    if g_set.data.shape[-1] != z_mapped.data.shape[-1]:
        raise ContractError(
            f"member widths differ: {g_set.data.shape[-1]} vs {z_mapped.data.shape[-1]}"
        )
    t_sel = np.zeros(lead + (1,), dtype=np.int64)
    i_sel = np.zeros(lead + (1,), dtype=np.int64)
    for n, idx in enumerate(np.ndindex(*lead)):
        z = z_mapped.data[idx]
        rows = np.arange(z.shape[0]) if z_rows is None else np.asarray(z_rows[n], np.int64)
        if g_set.data.shape[-2] == 0 or rows.size == 0:
            raise ContractError("hausdorff_distance over an empty set")
        t, i = _hausdorff_pair(g_set.data[idx], z[rows])
        t_sel[idx], i_sel[idx] = t, rows[i]
    u = tk.l2_normalize_rows(_take_rows(g_set, t_sel))
    v = tk.l2_normalize_rows(_take_rows(z_mapped, i_sel))
    return tk.reshape(tk.row_norms(tk.sub(u, v)), lead)


def fine_loss(d_h, y, margin):
    """Contrastive set loss: y*d^2 + (1-y)*max(0, m - d^2).

    y is 0 or 1 per element of d_h, so each sample takes exactly one term.
    """
    y = np.asarray(y, dtype=np.float64)
    d_sq = tk.mul(d_h, d_h)
    return tk.add(tk.mul(y, d_sq), tk.mul(1.0 - y, tk.relu(tk.sub(margin, d_sq))))


def _mask_at(w, F, t):
    """F (..., T, d_f) with row t of each sequence replaced by the mask
    token; t is an int array of F's leading shape."""
    T, d_f = F.data.shape[-2:]
    onehot = (np.arange(T) == t[..., None])[..., None]
    target = Tensor(np.take_along_axis(F.data, t[..., None, None], axis=-2))
    # F * keep + onehot * token: bitwise F off the masked rows, the token on them
    masked = tk.add(
        tk.mul(F, Tensor(~onehot)),
        tk.mul(Tensor(onehot), tk.reshape(w["mask_token"], (1, d_f))),
    )
    return masked, t, target


def mask_frame(w, F, rng):
    """Replace one uniformly chosen frame with the learnable mask token.

    F is (T, d_f) or a (..., T, d_f) stack; one index per sequence is drawn
    from rng in C order.  Returns (masked sequences, masked indices as an
    int array of the leading shape, original frames as a (..., 1, d_f)
    constant).
    """
    *lead, T, _ = F.data.shape
    if T < 1:
        raise ContractError("mask_frame needs at least one frame")
    t = np.array([rng.randint(T) for _ in range(int(np.prod(lead)))], dtype=np.int64)
    return _mask_at(w, F, t.reshape(lead))


def recover_frame(w, F_masked, G, t, k):
    """Blend a local-window prediction with a global-context prediction.

    Rank-generic: F_masked (..., T, d_f) and G (..., T+1, d_f) with one
    masked index per sequence in t.  The window is 2k+1 raw rows of the
    masked sequence centered at t, zero-padded outside [0, T); G carries
    CLS at row 0, so the encoded masked feature sits at offset t+1.
    Returns f_hat (..., 1, d_f) and the gate p_s (..., 1, 1).
    """
    d_f = F_masked.data.shape[-1]
    t = np.asarray(t, dtype=np.int64)
    pad = Tensor(np.zeros(F_masked.data.shape[:-2] + (k, d_f)))
    padded = tk.concat([pad, F_masked, pad], axis=-2)
    window = _take_rows(padded, t[..., None] + np.arange(2 * k + 1))
    pos = encoders.positional_encoding(2 * k + 1, d_f, w.cfg.max_positions + 1)
    R = encoders.encoder_stack(tk.add(window, pos), w, "tv", 1, w.cfg.heads)
    r_c = tk.narrow(R, k, 1, axis=-2)
    g_t = _take_rows(G, t[..., None] + 1)
    p_s = encoders.mlp_s(w, g_t)
    f1 = tk.matmul(r_c, w["w1"])
    f2 = tk.matmul(g_t, w["w2"])
    f_hat = tk.add(tk.mul(f1, p_s), tk.mul(f2, tk.sub(1.0, p_s)))
    return f_hat, p_s


def recovery_loss(f_hat, f_t, d_f):
    """Mean squared error over the d_f feature components of each (1, d_f)
    prediction; the result has the leading shape."""
    diff = tk.sub(f_hat, f_t)
    return tk.scale(tk.tsum(tk.mul(diff, diff), axis=(-2, -1)), 1.0 / d_f)


def word_token_rows(token_ids):
    """Indices of real word tokens (CLS/SEP/PAD excluded)."""
    ids = np.asarray(token_ids)
    return np.flatnonzero(~np.isin(ids, (PAD_ID, CLS_ID, SEP_ID)))


def _length_groups(samples):
    """Sample indices grouped by (crop length, token length), groups in
    order of first appearance."""
    groups = {}
    for i, s in enumerate(samples):
        groups.setdefault((s.video.shape[0], len(s.token_ids)), []).append(i)
    return list(groups.values())


def ssl_forward(w, samples, cfg, rng):
    """All three objectives over a batch of samples, as one graph.

    Samples whose crops and token streams have equal lengths are stacked:
    one video encoding (shared by the three objectives), one text encoding
    and one recovery-window stack per length group, with no padding.  Mask
    positions are drawn from rng in sample order.  Returns the batch means
    "l1", "l2", "l3" and "total" (l1 + alpha*l2 + beta*l3) as tensors, and
    per sample, in sample order: "losses" (B, 3) of (l1, l2, l3), "p_c",
    "p_s" and "y".
    """
    if not samples:
        raise ContractError("ssl_forward needs at least one sample")
    ts = np.array([rng.randint(s.video.shape[0]) for s in samples], dtype=np.int64)
    order, l1s, l2s, l3s, p_c, p_s = [], [], [], [], [], []
    for idx in _length_groups(samples):
        group = [samples[i] for i in idx]
        word_rows = [word_token_rows(s.token_ids) for s in group]
        if any(rows.size == 0 for rows in word_rows):
            raise ContractError("sample text contains no word tokens")
        y = np.array([s.y for s in group], dtype=np.float64)
        F_masked, t, f_t = _mask_at(w, Tensor(np.stack([s.video for s in group])), ts[idx])
        G = encoders.encode_video(w, F_masked, prepend_cls=True)
        Z = encoders.encode_text(w, np.array([s.token_ids for s in group]))
        l1, pc = coarse_loss(w, tk.narrow(G, 0, 1, axis=-2), tk.narrow(Z, 0, 1, axis=-2), y)
        g_rows = tk.narrow(G, 1, F_masked.data.shape[-2], axis=-2)
        d_h = hausdorff_distance(g_rows, encoders.mlp_t(w, Z), word_rows)
        f_hat, ps = recover_frame(w, F_masked, G, t, cfg.window_radius)
        order += idx
        l1s.append(l1)
        l2s.append(fine_loss(d_h, y, cfg.margin))
        l3s.append(recovery_loss(f_hat, f_t, w.cfg.d_f))
        p_c.append(pc)
        p_s.append(ps.data.reshape(-1))
    l1, l2, l3 = (tk.concat(parts, axis=0) for parts in (l1s, l2s, l3s))
    means = [tk.scale(tk.tsum(x), 1.0 / len(samples)) for x in (l1, l2, l3)]
    total = tk.add(means[0], tk.add(tk.scale(means[1], cfg.alpha), tk.scale(means[2], cfg.beta)))
    back = np.argsort(order)
    return {
        "total": total,
        "l1": means[0],
        "l2": means[1],
        "l3": means[2],
        "losses": np.stack([l1.data, l2.data, l3.data], axis=1)[back],
        "p_c": np.concatenate(p_c)[back],
        "p_s": np.concatenate(p_s)[back],
        "y": np.array([s.y for s in samples]),
    }


def ssl_step(batch, w, opt, cfg, rng):
    """The batch-mean combined loss as one graph, and one Adam step."""
    out = ssl_forward(w, batch, cfg, rng)
    opt.zero_grad()
    tk.backward(out["total"])
    opt.step()
    correct = int(np.sum((out["p_c"] >= 0.5) == (out["y"] == 1)))
    return {
        "total": float(out["total"].data),
        "l1": float(out["l1"].data),
        "l2": float(out["l2"].data),
        "l3": float(out["l3"].data),
        "pc_acc": correct / len(batch),
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
    """Held-out accuracy of the coarse correspondence head, graph-free;
    pairs are scored in batches of cfg.batch_size."""
    w = w.detached()
    samples = [sample_pair(corpus, rng, cfg) for _ in range(n_pairs)]
    correct = 0
    for start in range(0, n_pairs, cfg.batch_size):
        batch = samples[start : start + cfg.batch_size]
        for idx in _length_groups(batch):
            group = [batch[i] for i in idx]
            G = encoders.encode_video(w, Tensor(np.stack([s.video for s in group])), True)
            Z = encoders.encode_text(w, np.array([s.token_ids for s in group]))
            y = np.array([s.y for s in group])
            _, p_c = coarse_loss(w, tk.narrow(G, 0, 1, axis=-2), tk.narrow(Z, 0, 1, axis=-2), y)
            correct += int(np.sum((p_c >= 0.5) == (y == 1)))
    return correct / n_pairs
