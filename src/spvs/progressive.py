"""Multi-stage progressive summarizer: refinement, scoring, training, CV.

Each stage re-weights its input features by the previous stage's scores
(row t scaled by 1 + s_t), encodes with the shared video encoder, and emits
per-frame scores through its own linear head; the final score is the
elementwise product across stages.  Only the final product is supervised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataprep, encoders, metrics, segmentation, tensorkit as tk
from .errors import CapacityError, ConfigError, ContractError, DataError, check_field_types
from .tensorkit import Rng, Tensor


@dataclass
class SummarizerConfig:
    stages: int = 3
    use_text: bool = False
    max_frames: int = 512  # paper default
    lr: float = 1e-5  # paper default
    epochs: int = 40  # paper default
    batch_size: int = 4  # paper default
    folds: int = 5  # paper default
    budget_fraction: float = segmentation.DEFAULT_BUDGET_FRACTION  # paper: 15%

    def __post_init__(self):
        check_field_types(self)
        if self.stages < 1:
            raise ConfigError("stages must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        segmentation.check_budget_fraction(self.budget_fraction)


def refine_input(F_prev, s_prev):
    """F^n = F^{n-1} * s^{n-1} + F^{n-1} (row t scaled by 1 + s_t)."""
    if F_prev.data.shape[0] != s_prev.data.shape[0]:
        raise tk.DimensionError(
            f"refine_input: {F_prev.data.shape[0]} frames vs {s_prev.data.shape[0]} scores"
        )
    return tk.add(tk.scale_rows(F_prev, s_prev), F_prev)


def stage_forward(w, F, n, text_feature=None):
    """One stage: encode, residual add, optional text fusion, sigmoid head.

    text_feature is a (1, d_f) visual-space vector and is only legal at the
    first stage; it is broadcast-added to every time step.
    """
    if text_feature is not None and n != 1:
        raise ContractError("text fusion is only permitted at stage 1")
    G = encoders.encode_video(w, F, prepend_cls=False)
    base = tk.add(G, F)
    if text_feature is not None:
        base = tk.add(base, text_feature)
    logits = tk.add(tk.matmul(base, w[f"head.stage{n}.w"]), w[f"head.stage{n}.b"])
    s = tk.sigmoid(tk.reshape(logits, (F.data.shape[0],)))
    return G, s


def final_scores(stage_scores):
    """Elementwise product of all stage score sequences."""
    if not stage_scores:
        raise ContractError("final_scores of zero stages")
    out = stage_scores[0]
    for s in stage_scores[1:]:
        out = tk.mul(out, s)
    return out


def vs_loss(s_star, s_gt):
    """Mean squared error over the frames."""
    T = s_star.data.shape[0]
    gt = np.asarray(s_gt, dtype=np.float64)
    if gt.shape != (T,):
        raise tk.DimensionError(f"vs_loss: prediction length {T} vs target {gt.shape}")
    diff = tk.sub(s_star, Tensor(gt))
    return tk.scale(tk.tsum(tk.mul(diff, diff)), 1.0 / T)


def forward_stages(w, F0, n_stages, text_feature=None):
    """Run every stage; returns (list of per-stage scores, final product)."""
    F = F0
    s_prev = None
    scores = []
    for n in range(1, n_stages + 1):
        if s_prev is not None:
            F = refine_input(F, s_prev)
        _, s = stage_forward(w, F, n, text_feature=text_feature if n == 1 else None)
        scores.append(s)
        s_prev = s
    return scores, final_scores(scores)


def text_feature_for(w, token_ids):
    """Visual-space text vector MLP_T(z_0) for first-stage fusion."""
    Z = encoders.encode_text(w, token_ids)
    return encoders.mlp_t(w, tk.narrow(Z, 0, 1))


def predict(w, video, cfg, token_ids=None):
    """Deterministic full forward pass over one video.

    Runs on w.detached(), so it builds no autodiff graph.  Returns
    {"stage_scores": [np arrays], "final_scores": np array}.
    """
    w = w.detached()
    video = np.asarray(video, dtype=np.float64)
    if video.shape[0] > w.cfg.max_positions:
        raise CapacityError(
            f"video length {video.shape[0]} exceeds max_positions "
            f"{w.cfg.max_positions}; window the video first"
        )
    text_feature = None
    if cfg.use_text and token_ids is not None:
        text_feature = text_feature_for(w, token_ids)
    scores, s_star = forward_stages(w, Tensor(video), cfg.stages, text_feature)
    return {
        "stage_scores": [s.data.copy() for s in scores],
        "final_scores": s_star.data.copy(),
    }


# ---------------------------------------------------------------------------
# Training with cross-validation


def fold_of(video_id, seed, folds):
    """Stable fold assignment from (video id, seed)."""
    return tk._fnv1a64(f"{video_id}|{seed}") % folds


def _require_annotations(rec):
    if not rec.annotations:
        raise DataError(f"{rec.id}: training and evaluation need at least one annotation")


def _gt_scores(rec):
    """Training target: mean of the annotator frame scores."""
    return np.mean(np.stack([np.asarray(a) for a in rec.annotations]), axis=0)


def _crop(feats, gt, max_frames, rng):
    T = feats.shape[0]
    if T <= max_frames:
        return feats, gt
    start = int(rng.randint(T - max_frames + 1))
    return feats[start : start + max_frames], gt[start : start + max_frames]


def evaluate_scores(rec, s_star, budget_fraction):
    """Rank metrics vs every annotator plus summary F-score for one video's
    frame scores."""
    _require_annotations(rec)
    _, summary, references = segmentation.summarize_video(
        rec.features, s_star, budget_fraction, rec.annotations
    )
    return metrics.evaluate(
        s_star, rec.annotations, summary.frame_mask, [r.frame_mask for r in references]
    )


def predict_record(w, rec, cfg, vocab=None):
    """predict() on one dataset record, with its summarize-mode tokens when
    cfg.use_text and a vocabulary are given."""
    token_ids = None
    if cfg.use_text and vocab is not None:
        token_ids = dataprep.assemble_tokens(rec.text, vocab, mode="summarize")
    return predict(w, rec.features, cfg, token_ids)


def evaluate_video(w, rec, cfg, vocab=None):
    """Rank metrics vs every annotator plus summary F-score for one video."""
    s_star = predict_record(w, rec, cfg, vocab)["final_scores"]
    report = evaluate_scores(rec, s_star, cfg.budget_fraction)
    report["id"] = rec.id
    if rec.planted_scores is not None:
        report["tau_planted"] = metrics.kendall_tau(s_star, rec.planted_scores)
    return report


METRICS = ("tau", "rho", "f")


def metric_means(rows, mean=np.nanmean):
    """{metric: mean over rows} for tau, rho and f, plus tau_planted when
    every row has it.

    Fold means take np.nanmean over videos, skipping an undefined tau; the
    overall figure takes np.mean over the fold means.
    """
    rows = list(rows)
    keys = METRICS
    if rows and all("tau_planted" in r for r in rows):
        keys += ("tau_planted",)
    return {k: float(mean([r[k] for r in rows])) for k in keys}


def train_on(w, records, cfg, rng, vocab=None):
    """Train the stage heads (and encoder) on a record list with Adam."""
    opt = tk.Adam(w.trainable(), lr=cfg.lr)
    ids = list(range(len(records)))
    token_cache = {}
    for epoch in range(cfg.epochs):
        rng.shuffle(ids)
        for b in range(0, len(ids), cfg.batch_size):
            batch = ids[b : b + cfg.batch_size]
            losses = []
            for i in batch:
                rec = records[i]
                feats, gt = _crop(rec.features, _gt_scores(rec), cfg.max_frames, rng)
                text_feature = None
                if cfg.use_text and vocab is not None:
                    if rec.id not in token_cache:
                        token_cache[rec.id] = dataprep.assemble_tokens(
                            rec.text, vocab, mode="summarize"
                        )
                    text_feature = text_feature_for(w, token_cache[rec.id])
                _, s_star = forward_stages(w, Tensor(feats), cfg.stages, text_feature)
                losses.append(tk.reshape(vs_loss(s_star, gt), (1,)))
            total = tk.scale(tk.tsum(tk.concat(losses, axis=0)), 1.0 / len(losses))
            opt.zero_grad()
            tk.backward(total)
            opt.step()
    return w


def train(records, cfg, enc_cfg, seed, pretrained_path=None):
    """K-fold cross-validation; returns (per-fold reports, fold weights).

    Fold assignment hashes video ids with the seed; every video lands in
    exactly one eval fold.  A pretrained checkpoint, when given, initializes
    the encoders and heads while stage heads stay freshly initialized.
    """
    for rec in records:
        rec.validate()
        _require_annotations(rec)
    vocab = dataprep.corpus_vocab(records, min_size=enc_cfg.vocab_size)
    if len(vocab) > enc_cfg.vocab_size:
        raise ConfigError(
            f"corpus vocabulary ({len(vocab)}) exceeds vocab_size ({enc_cfg.vocab_size})"
        )
    assignment = {rec.id: fold_of(rec.id, seed, cfg.folds) for rec in records}
    # tensors the checkpoint provides are not drawn, only loaded
    loaded = ()
    if pretrained_path:
        loaded = set(encoders.pretrained_names(
            tk.load_checkpoint(pretrained_path), enc_cfg, cfg.stages
        ))
    fold_reports = []
    fold_weights = []
    for fold in range(cfg.folds):
        train_recs = [r for r in records if assignment[r.id] != fold]
        eval_recs = [r for r in records if assignment[r.id] == fold]
        if not train_recs or not eval_recs:
            raise DataError(f"fold {fold} has an empty train or eval split")
        rng = Rng(seed).substream(f"train/fold{fold}")
        w = encoders.ModelWeights.initialize(
            enc_cfg, cfg.stages, rng.substream("init"), skip=loaded
        )
        if pretrained_path:
            w.load_pretrained(pretrained_path)
        train_on(w, train_recs, cfg, rng.substream("loop"), vocab)
        per_video = [evaluate_video(w, r, cfg, vocab) for r in eval_recs]
        fold_reports.append({
            "fold": fold,
            "videos": [r["id"] for r in per_video],
            "per_video": per_video,
            **metric_means(per_video),
        })
        fold_weights.append(w)
    summary = {
        "folds": fold_reports,
        "seed": seed,
        "stages": cfg.stages,
        "use_text": cfg.use_text,
        "pretrained": bool(pretrained_path),
        **metric_means(fold_reports, np.mean),
    }
    return summary, fold_weights
