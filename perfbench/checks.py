"""Reference computations the output checks compare against.

Nothing here calls spvs: the checkpoint size follows the layout in NAMES.md,
the knapsack is a brute-force search, F is computed from frame masks, and
Kendall's tau-b and Spearman's rho come from scipy.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def checkpoint_shapes(d_f, d_w, video_layers, text_layers, vocab_size, stages):
    """Tensor name -> shape for a model, from the table in NAMES.md."""
    shapes = {}

    def stack(prefix, layers, d):
        ffn = 4 * d
        for i in range(layers):
            base = f"{prefix}.layer{i}"
            for ln in ("ln1", "ln2"):
                shapes[f"{base}.{ln}.g"] = (d,)
                shapes[f"{base}.{ln}.b"] = (d,)
            for p in "qkvo":
                shapes[f"{base}.attn.w{p}"] = (d, d)
                shapes[f"{base}.attn.b{p}"] = (d,)
            shapes[f"{base}.ffn.w1"] = (d, ffn)
            shapes[f"{base}.ffn.b1"] = (ffn,)
            shapes[f"{base}.ffn.w2"] = (ffn, d)
            shapes[f"{base}.ffn.b2"] = (d,)
        if layers:
            shapes[f"{prefix}.ln_f.g"] = (d,)
            shapes[f"{prefix}.ln_f.b"] = (d,)

    def mlp(prefix, widths):
        for i, (a, b) in enumerate(zip(widths, widths[1:])):
            shapes[f"{prefix}.w{i}"] = (a, b)
            shapes[f"{prefix}.b{i}"] = (b,)

    stack("ev", video_layers, d_f)
    stack("et", text_layers, d_w)
    stack("tv", 1, d_f)
    shapes["embed.word"] = (vocab_size, d_w)
    shapes["cls_feature"] = (d_f,)
    shapes["mask_token"] = (d_f,)
    shapes["w1"] = (d_f, d_f)
    shapes["w2"] = (d_f, d_f)
    mlp("mlp_cls", [d_f + d_w, d_f, d_f // 2, 1])
    mlp("mlp_t", [d_w, d_f, d_f])
    mlp("mlp_s", [d_f, d_f // 4, 1])
    for n in range(1, stages + 1):
        shapes[f"head.stage{n}.w"] = (d_f, 1)
        shapes[f"head.stage{n}.b"] = (1,)
    return shapes


def checkpoint_size(shapes):
    """Bytes of a checkpoint: 12-byte header, then per tensor a u16 name
    length, the name, a u8 rank, u32 extents and a float32 payload."""
    size = 12
    for name, shape in shapes.items():
        size += 2 + len(name.encode("utf-8")) + 1 + 4 * len(shape) + 4 * math.prod(shape)
    return size


def shot_bounds(change_points, n_frames):
    bounds = [0, *change_points, n_frames]
    return list(zip(bounds[:-1], bounds[1:]))


def shot_means(scores, shots):
    return [float(np.mean(scores[a:b])) for a, b in shots]


def best_selection(values, lengths, budget):
    """Exact 0/1 knapsack by enumerating every subset of the shots that fit.

    Returns (value, selected indices).  The value of a subset is summed in
    index order.  Ties go to fewer frames, then to the subset whose negated
    index tuple is largest, the rule spvs documents.
    """
    fit = [i for i, n in enumerate(lengths) if n <= budget]
    if len(fit) > 20:
        raise ValueError(f"{len(fit)} shots fit the budget; the enumeration stops at 20")
    best_key, best = (0.0, 0, ()), ()
    for r in range(1, len(fit) + 1):
        for subset in itertools.combinations(fit, r):
            frames = sum(lengths[i] for i in subset)
            if frames > budget:
                continue
            value = 0.0
            for i in subset:
                value += values[i]
            key = (value, -frames, tuple(-i for i in subset))
            if key > best_key:
                best_key, best = key, subset
    return best_key[0], best


def mask_of(selected, shots, n_frames):
    mask = np.zeros(n_frames, dtype=bool)
    for i in selected:
        a, b = shots[i]
        mask[a:b] = True
    return mask


def f_measure(pred, gt):
    """F of two frame masks: 2|P and G| / (|P| + |G|), 0 when both are empty."""
    total = int(pred.sum()) + int(gt.sum())
    return 2.0 * int((pred & gt).sum()) / total if total else 0.0


def rank_scores(scores, annotations):
    """Kendall tau-b and Spearman rho against each annotator, averaged."""
    # Imported here, after set-up is timed: scipy.stats alone takes longer
    # to import than the spvs package, and the program never imports it.
    from scipy import stats

    taus = [stats.kendalltau(scores, a).statistic for a in annotations]
    rhos = [stats.spearmanr(scores, a).statistic for a in annotations]
    return float(np.mean(taus)), float(np.mean(rhos))
