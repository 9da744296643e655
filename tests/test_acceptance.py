"""Acceptance gate: eight end-to-end criteria, one PASS/FAIL line each.

Criteria 4 and 5 run real pretraining and summarizer training at desk
scale and together take roughly 16 CPU minutes; everything else is fast.
Each test prints a single `[acceptance N/8] ...: PASS` line through the
capture-disabled stream so the verdicts are visible in any pytest run.
"""

import itertools
import math
import os
import struct
import time
import warnings

import numpy as np
import pytest

from spvs import (
    cli,
    dataprep as dp,
    encoders,
    metrics,
    pretrain,
    progressive,
    segmentation,
    tensorkit as tk,
)
from spvs.errors import FormatError
from spvs.tensorkit import Rng, Tensor


def _report(capsys, index, label, failures):
    verdict = "PASS" if not failures else f"FAIL ({failures[0]})"
    with capsys.disabled():
        print(f"[acceptance {index}/8] {label}: {verdict}", flush=True)
    assert not failures, f"{label}: {failures[0]}"


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradients match central finite differences


def _fd_at(build_loss, tensor, idx, h=1e-5):
    orig = tensor.data[idx]
    tensor.data[idx] = orig + h
    up = float(build_loss().data)
    tensor.data[idx] = orig - h
    down = float(build_loss().data)
    tensor.data[idx] = orig
    return (up - down) / (2 * h)


def _grad_failures(name, build_loss, params, rng, n_points=20, rtol=1e-4):
    tk.zero_grads(params)
    tk.backward(build_loss())
    coords = [(p, idx) for p in params for idx in np.ndindex(p.data.shape)]
    out = []
    for _ in range(n_points):
        p, idx = coords[rng.randint(len(coords))]
        num = _fd_at(build_loss, p, idx)
        ana = 0.0 if p.grad is None else float(p.grad[idx])
        if abs(num - ana) <= 1e-8:
            continue
        rel = abs(num - ana) / max(abs(num), abs(ana))
        if rel > rtol:
            out.append(f"{name} at {idx}: analytic={ana} numeric={num} rel={rel:.2e}")
    return out


def _op_cases(rng):
    """One (name, build_loss, params) case per differentiable op.

    Inputs are kept away from relu/clip kinks so central differences are
    valid; fixed weight matrices break the symmetries that would otherwise
    zero the gradients of softmax and layer norm.
    """

    def t(shape, lo=-1.0, hi=1.0):
        return Tensor(rng.uniforms(shape, lo, hi), requires_grad=True)

    W34 = np.linspace(0.3, 1.7, 12).reshape(3, 4)
    W43 = W34.T.copy()
    cases = []
    x, y = t((3, 4)), t((3, 4))
    cases.append(("add", lambda: tk.tsum(tk.mul(tk.add(x, y), Tensor(W34))), [x, y]))
    x2, y2 = t((3, 4)), t((3, 4))
    cases.append(("sub", lambda: tk.tsum(tk.mul(tk.sub(x2, y2), Tensor(W34))), [x2, y2]))
    x3, y3 = t((3, 4)), t((3, 4))
    cases.append(("mul", lambda: tk.tsum(tk.mul(x3, y3)), [x3, y3]))
    x4 = t((3, 4))
    cases.append(("neg", lambda: tk.tsum(tk.mul(tk.neg(x4), Tensor(W34))), [x4]))
    x5 = t((3, 4))
    cases.append(("scale", lambda: tk.tsum(tk.mul(tk.scale(x5, 0.7), Tensor(W34))), [x5]))
    x6, s6 = t((3, 4)), t((3,), 0.2, 0.9)
    cases.append(("scale_rows", lambda: tk.tsum(tk.mul(tk.scale_rows(x6, s6), Tensor(W34))), [x6, s6]))
    x7 = t((3, 4))
    cases.append(("exp", lambda: tk.tsum(tk.exp(tk.scale(x7, 0.5))), [x7]))
    x8 = t((3, 4))
    cases.append(("log", lambda: tk.tsum(tk.log(tk.add(tk.mul(x8, x8), 0.5))), [x8]))
    x9 = t((3, 4))
    cases.append(("sqrt", lambda: tk.tsum(tk.sqrt(tk.add(tk.mul(x9, x9), 0.3))), [x9]))
    x10 = t((3, 4))
    cases.append(("sigmoid", lambda: tk.tsum(tk.mul(tk.sigmoid(x10), Tensor(W34))), [x10]))
    x11 = t((3, 4), -0.5, 0.5)
    cases.append((
        "relu",
        lambda: tk.tsum(tk.add(tk.relu(tk.add(x11, 1.0)), tk.relu(tk.sub(x11, 3.0)))),
        [x11],
    ))
    x12 = t((3, 4))
    cases.append(("gelu", lambda: tk.tsum(tk.gelu(x12)), [x12]))
    x13 = Tensor(np.linspace(-1.9, 1.9, 12).reshape(3, 4), requires_grad=True)
    cases.append(("clip", lambda: tk.tsum(tk.mul(tk.clip(x13, -0.5, 0.5), Tensor(W34))), [x13]))
    a, b = t((3, 4)), t((4, 2))
    cases.append(("matmul", lambda: tk.tsum(tk.matmul(a, b)), [a, b]))
    x14 = t((3, 4))
    cases.append(("transpose", lambda: tk.tsum(tk.mul(tk.transpose(x14), Tensor(W43))), [x14]))
    x15 = t((3, 4))
    cases.append(("reshape", lambda: tk.tsum(tk.mul(tk.reshape(x15, (4, 3)), Tensor(W43))), [x15]))
    x16 = t((5, 4))
    cases.append(("narrow", lambda: tk.tsum(tk.mul(tk.narrow(x16, 1, 3), Tensor(W34))), [x16]))
    x17, y17 = t((2, 4)), t((1, 4))
    cases.append((
        "concat",
        lambda: tk.tsum(tk.mul(tk.concat([x17, y17], axis=0), Tensor(W34))),
        [x17, y17],
    ))
    table = t((6, 3))
    cases.append((
        "gather_rows",
        lambda: tk.tsum(tk.mul(tk.gather_rows(table, [0, 2, 2, 5]), Tensor(W43))),
        [table],
    ))
    x18 = t((3, 4))
    cases.append(("tsum", lambda: tk.tsum(tk.mul(x18, x18)), [x18]))
    x19 = t((3, 4))
    cases.append(("tmean", lambda: tk.tmean(tk.mul(x19, x19)), [x19]))
    x20 = t((3, 4))
    cases.append(("row_norms", lambda: tk.tsum(tk.row_norms(tk.add(x20, 2.0))), [x20]))
    x21 = t((3, 4))
    cases.append((
        "l2_normalize_rows",
        lambda: tk.tsum(tk.mul(tk.l2_normalize_rows(tk.add(x21, 1.5)), Tensor(W34))),
        [x21],
    ))
    x22 = t((3, 4))
    cases.append((
        "softmax_rows",
        lambda: tk.tsum(tk.mul(tk.softmax_rows(x22), Tensor(W34))),
        [x22],
    ))
    x23 = t((3, 4))
    g23 = Tensor(rng.uniforms((4,), 0.5, 1.5), requires_grad=True)
    b23 = t((4,))
    cases.append((
        "layer_norm_rows",
        lambda: tk.tsum(tk.mul(tk.layer_norm_rows(x23, g23, b23), Tensor(W34))),
        [x23, g23, b23],
    ))
    return cases


def test_criterion_1_gradient_suite(capsys):
    t0 = time.monotonic()
    rng = Rng(424242)
    failures = []
    for name, build_loss, params in _op_cases(rng):
        failures += _grad_failures(name, build_loss, params, rng)

    cfg = encoders.EncoderConfig(
        d_f=8, d_w=4, video_layers=1, text_layers=1, heads=2,
        ffn_dim=8, vocab_size=16, max_positions=32,
    )
    w = encoders.ModelWeights.initialize(cfg, 2, Rng(5))
    params = list(w.trainable().values())
    video = Rng(21).normals((6, 8))
    tokens = [1, 5, 6, 2, 7, 8, 2, 9, 10]
    sample = pretrain.PairSample(video=video, token_ids=tokens, y=1)
    ssl_cfg = pretrain.SSLConfig(window_radius=2, crop_len=16, alpha=2.0, beta=1.0)
    for key in ("l1", "l2", "l3", "total"):
        failures += _grad_failures(
            f"ssl.{key}",
            lambda key=key: pretrain.ssl_forward(w, sample, ssl_cfg, Rng(9))[key],
            params,
            rng,
        )
    gt = Rng(31).uniforms((6,))

    def summary_loss():
        _, s_star = progressive.forward_stages(w, Tensor(video), 2)
        return progressive.vs_loss(s_star, gt)

    failures += _grad_failures("summary_mse", summary_loss, params, rng)
    elapsed = time.monotonic() - t0
    if elapsed > 60.0:
        failures.append(f"gradient suite took {elapsed:.1f}s > 60s")
    _report(capsys, 1, "gradient checks vs central differences", failures)


# ---------------------------------------------------------------------------
# Criterion 2: exact oracles for the closed-form components


def _brute_hausdorff(A, B):
    def unit(M):
        return M / np.maximum(np.sqrt((M**2).sum(axis=1, keepdims=True)), 1e-300)

    Au, Bu = unit(A), unit(B)
    D = np.array([[np.sqrt(((a - b) ** 2).sum()) for b in Bu] for a in Au])
    return max(D.min(axis=1).max(), D.min(axis=0).max())


def _scatter_table(X):
    """cost[a][b] = within-segment scatter of normalized rows [a, b)."""
    Xn = X / np.maximum(np.sqrt((X**2).sum(axis=1, keepdims=True)), 1e-12)
    T = X.shape[0]
    cost = {}
    for a in range(T):
        for b in range(a + 1, T + 1):
            S = Xn[a:b]
            cost[(a, b)] = float((S**2).sum() - (S.sum(axis=0) ** 2).sum() / (b - a))
    return cost


def _kts_objective(cost, cps, T, penalty):
    bounds = [0] + list(cps) + [T]
    scatter = sum(cost[(a, b)] for a, b in zip(bounds[:-1], bounds[1:]))
    m = len(cps)
    if m == 0:
        return scatter
    return scatter + penalty * m * (math.log(T / m) + 1.0)


def _brute_knapsack(scores, lengths, budget):
    k = len(scores)
    bits = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)
    vals = bits @ np.asarray(scores, dtype=np.float64)
    frames = bits @ np.asarray(lengths, dtype=np.float64)
    feas = np.flatnonzero(frames <= budget)
    best_v = vals[feas].max()
    tied = feas[vals[feas] == best_v]
    min_f = frames[tied].min()
    tied = [int(c) for c in tied if frames[c] == min_f]

    def key(c):
        idx = tuple(i for i in range(k) if (c >> i) & 1)
        return tuple(-x for x in idx)

    best_c = max(tied, key=key)
    return best_v, [bool((best_c >> i) & 1) for i in range(k)]


def _tau_oracle(x, y):
    n = len(x)
    conc = disc = tie_x = tie_y = 0
    for i, j in itertools.combinations(range(n), 2):
        a = int(x[i] > x[j]) - int(x[i] < x[j])
        b = int(y[i] > y[j]) - int(y[i] < y[j])
        if a == 0:
            tie_x += 1
        if b == 0:
            tie_y += 1
        if a * b > 0:
            conc += 1
        elif a * b < 0:
            disc += 1
    n0 = n * (n - 1) // 2
    if tie_x == n0 or tie_y == n0:
        return float("nan")
    return (conc - disc) / math.sqrt(float(n0 - tie_x) * float(n0 - tie_y))


def _rho_oracle(x, y):
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        # definitional average rank: 1 + (# smaller) + (# equal others) / 2
        return np.array([
            1.0 + np.sum(v < w) + (np.sum(v == w) - 1) / 2.0 for w in v
        ])

    rx, ry = ranks(x), ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    vx, vy = float((rx**2).sum()), float((ry**2).sum())
    if vx == 0.0 or vy == 0.0:
        return float("nan")
    return float((rx * ry).sum() / math.sqrt(vx * vy))


def test_criterion_2_component_oracles(capsys):
    failures = []
    rng = Rng(777)

    for trial in range(25):
        A = rng.normals((1 + rng.randint(7), 4))
        B = rng.normals((1 + rng.randint(7), 4))
        got = float(pretrain.hausdorff_distance(Tensor(A), Tensor(B)).data)
        want = _brute_hausdorff(A, B)
        if abs(got - want) > 1e-12:
            failures.append(f"hausdorff trial {trial}: {got} vs {want}")

    penalty = segmentation.DEFAULT_PENALTY
    for T in range(1, 21):
        for trial in range(2):
            X = rng.normals((T, 4))
            m_cap = min(4, T - 1) if T > 1 else 0
            cost = _scatter_table(X)
            best = min(
                _kts_objective(cost, cps, T, penalty)
                for m in range(m_cap + 1)
                for cps in itertools.combinations(range(1, T), m)
            )
            seg = segmentation.kts_segment(X, max_segments=m_cap)
            got = _kts_objective(cost, seg.change_points, T, penalty)
            if abs(got - best) > 1e-9:
                failures.append(f"kts T={T} trial {trial}: {got} vs optimum {best}")

    for trial in range(60):
        k = 4 + rng.randint(12)
        scores = [rng.randint(65) / 64.0 for _ in range(k)]
        lengths = [1 + rng.randint(9) for _ in range(k)]
        budget = rng.randint(sum(lengths) + 1)
        sel = segmentation.knapsack_select(scores, lengths, budget)
        best_v, best_sel = _brute_knapsack(scores, lengths, budget)
        if sel != best_sel:
            failures.append(
                f"knapsack trial {trial}: k={k} budget={budget} {sel} vs {best_sel}"
            )
            break

    for trial in range(100):
        n = 5 + rng.randint(21)
        if trial % 2 == 0:
            x = rng.normals((n,))
            y = rng.normals((n,))
        else:
            x = np.array([float(rng.randint(4)) for _ in range(n)])
            y = np.array([float(rng.randint(4)) for _ in range(n)])
            if np.all(x == x[0]):
                x[0] += 1.0
            if np.all(y == y[0]):
                y[0] += 1.0
        tau, rho = metrics.kendall_tau(x, y), metrics.spearman_rho(x, y)
        tau_o, rho_o = _tau_oracle(list(x), list(y)), _rho_oracle(x, y)
        if abs(tau - tau_o) > 1e-12 or abs(rho - rho_o) > 1e-12:
            failures.append(f"rank metrics trial {trial}: tau {tau} vs {tau_o}, rho {rho} vs {rho_o}")
            break

    _report(capsys, 2, "closed-form components vs exhaustive oracles", failures)


# ---------------------------------------------------------------------------
# Criterion 3: progressive refinement invariants


def test_criterion_3_progressive_invariants(capsys, tiny_cfg):
    failures = []
    rng = Rng(1313)

    F0 = rng.normals((7, 8))
    stage_s = [rng.uniforms((7,), 0.05, 0.95) for _ in range(4)]
    F = Tensor(F0)
    factor = np.ones(7)
    for s in stage_s:
        F = progressive.refine_input(F, Tensor(s))
        factor = factor * (1.0 + s)
    closed = F0 * factor[:, None]
    if not np.allclose(F.data, closed, rtol=0.0, atol=1e-10):
        failures.append(
            f"refinement chain deviates from closed form by {np.abs(F.data - closed).max():.2e}"
        )

    w = encoders.ModelWeights.initialize(tiny_cfg, 3, Rng(99))
    video = rng.normals((9, tiny_cfg.d_f))
    pred = progressive.predict(w, video, progressive.SummarizerConfig(stages=3, folds=2))
    for n, s_n in enumerate(pred["stage_scores"], start=1):
        if np.any(pred["final_scores"] > s_n):
            failures.append(f"final scores exceed stage {n} scores")

    pred1 = progressive.predict(w, video, progressive.SummarizerConfig(stages=1, folds=2))
    if not np.array_equal(pred1["final_scores"], pred1["stage_scores"][0]):
        failures.append("single-stage final scores are not bitwise the stage scores")

    _report(capsys, 3, "progressive refinement invariants", failures)


# ---------------------------------------------------------------------------
# Criterion 4: pretraining learns correspondence and recovery


@pytest.mark.slow
def test_criterion_4_pretraining_sanity(capsys):
    t0 = time.monotonic()
    failures = []
    recs = dp.gen_synthetic(
        n_videos=200, n_frames=128, d_f=64, seed=7,
        n_topics=20, query_topics=0, code_bits=8,
    )
    vocab = dp.corpus_vocab(recs)
    enc_cfg = encoders.EncoderConfig(
        d_f=64, d_w=16, video_layers=1, text_layers=1, heads=4,
        vocab_size=len(vocab), max_positions=512,
    )
    w = encoders.ModelWeights.initialize(enc_cfg, 1, Rng(7))
    corpus = [
        (r.id, r.features, dp.assemble_tokens(r.text, vocab, mode="pretrain"))
        for r in recs
    ]
    train_c, eval_c = corpus[:160], corpus[160:]
    cfg = pretrain.SSLConfig(
        lr=1e-3, alpha=2.0, beta=1.0, steps=2000, batch_size=16, log_every=500,
    )
    pretrain.pretrain(train_c, w, cfg, Rng(7))

    acc = pretrain.correspondence_accuracy(eval_c, w, cfg, Rng(55), n_pairs=200)
    l3_vals, base_vals = [], []
    mask_rng = Rng(99)
    for vid, feats, tokens in eval_c:
        s = pretrain.PairSample(video=feats, token_ids=tokens, y=1, video_id=vid, text_id=vid)
        out = pretrain.ssl_forward(w, s, cfg, mask_rng)
        l3_vals.append(float(out["l3"].data))
        mean = feats.mean(axis=0)
        base_vals.append(float(2.0 / feats.shape[1] * ((feats - mean) ** 2).sum(axis=1).mean()))
    l3, base = float(np.mean(l3_vals)), float(np.mean(base_vals))
    minutes = (time.monotonic() - t0) / 60.0

    if acc < 0.85:
        failures.append(f"held-out correspondence accuracy {acc:.4f} < 0.85")
    if l3 > 0.8 * base:
        failures.append(f"recovery loss {l3:.4f} > 0.8 * baseline {base:.4f}")
    if minutes > 15.0:
        failures.append(f"runtime {minutes:.1f} min > 15 min")
    _report(
        capsys, 4,
        f"pretraining sanity (acc={acc:.3f}, recovery ratio={l3 / base:.3f}, {minutes:.1f} min)",
        failures,
    )


# ---------------------------------------------------------------------------
# Criterion 5: stage depth and pretraining both help on held-out folds


def _summarizer_run(seed, tmp_dir):
    recs = dp.gen_synthetic(
        n_videos=32, n_frames=64, d_f=16, seed=seed,
        n_topics=20, code_scale=0.15, noise_sigma=0.35,
    )
    big = dp.gen_synthetic(
        n_videos=128, n_frames=64, d_f=16, seed=seed + 500,
        n_topics=20, code_scale=0.15, noise_sigma=0.35,
    )
    vocab = dp.corpus_vocab(recs + big)
    enc_cfg = encoders.EncoderConfig(
        d_f=16, d_w=8, video_layers=1, text_layers=1, heads=2,
        ffn_dim=4, vocab_size=len(vocab), max_positions=512,
    )
    corpus = [
        (r.id, r.features, dp.assemble_tokens(r.text, vocab, mode="pretrain"))
        for r in big
    ]
    ssl_cfg = pretrain.SSLConfig(lr=1e-3, steps=1600, crop_len=64, alpha=2.0, beta=1.0)
    w = encoders.ModelWeights.initialize(enc_cfg, 1, Rng(seed))
    pretrain.pretrain(corpus, w, ssl_cfg, Rng(seed + 1000))
    ck = os.path.join(tmp_dir, f"pre_{seed}.ck")
    w.save(ck)
    out = {}
    for label, stages, pre in (("1_pre", 1, ck), ("3_pre", 3, ck), ("3_rand", 3, None)):
        cfg = progressive.SummarizerConfig(stages=stages, epochs=60, folds=3, lr=3e-3)
        report, _ = progressive.train(recs, cfg, enc_cfg, seed, pretrained_path=pre)
        out[label] = (report["tau"], report["tau_planted"])
    return out


@pytest.mark.slow
def test_criterion_5_training_gains(capsys, tmp_path):
    failures = []
    results = [_summarizer_run(seed, str(tmp_path)) for seed in (1, 2, 3)]
    mean = {
        key: (
            float(np.mean([r[key][0] for r in results])),
            float(np.mean([r[key][1] for r in results])),
        )
        for key in ("1_pre", "3_pre", "3_rand")
    }
    stage_gain = mean["3_pre"][0] - mean["1_pre"][0]
    pretrain_gain = mean["3_pre"][0] - mean["3_rand"][0]
    best_planted = mean["3_pre"][1]
    if stage_gain < 0.01:
        failures.append(f"3-stage vs 1-stage mean tau gain {stage_gain:.4f} < 0.01")
    if pretrain_gain < 0.01:
        failures.append(f"pretrained vs random mean tau gain {pretrain_gain:.4f} < 0.01")
    if best_planted < 0.5:
        failures.append(f"best configuration planted tau {best_planted:.4f} < 0.5")
    _report(
        capsys, 5,
        "training gains (stage gain "
        f"{stage_gain:+.4f}, pretrain gain {pretrain_gain:+.4f}, "
        f"planted tau {best_planted:.4f})",
        failures,
    )


# ---------------------------------------------------------------------------
# Criterion 6: budget safety and knapsack optimality at scale


def test_criterion_6_budget_and_optimality(capsys):
    failures = []
    rng = Rng(606)
    for trial in range(1000):
        k = 1 + rng.randint(18)
        lengths = [1 + rng.randint(12) for _ in range(k)]
        T = sum(lengths)
        cps = list(itertools.accumulate(lengths))[:-1]
        seg = segmentation.ShotSegmentation(change_points=cps, n_frames=T)
        s = rng.uniforms((T,))
        summary = segmentation.summarize(s, seg)
        budget = math.floor(0.15 * T)
        used = int(summary.frame_mask.sum())
        if used > budget or summary.budget_frames != budget:
            failures.append(f"trial {trial}: used {used} frames over budget {budget}")
            break
        if k <= 15:
            values = segmentation.shot_scores(s, seg)
            best_v, _ = _brute_knapsack(list(values), lengths, budget)
            got_v = float(values[np.asarray(summary.selected)].sum())
            if abs(got_v - best_v) > 1e-9:
                failures.append(f"trial {trial}: value {got_v} vs optimum {best_v}")
                break
    _report(capsys, 6, "summary budget and selection optimality (1000 instances)", failures)


# ---------------------------------------------------------------------------
# Criterion 7: the full pipeline is bitwise reproducible


def _run_pipeline(root):
    os.makedirs(root, exist_ok=True)
    data = os.path.join(root, "data.jsonl")
    cfg_path = os.path.join(root, "run.json")
    with open(cfg_path, "w") as fh:
        fh.write(
            '{"encoder": {"d_w": 8, "video_layers": 1, "text_layers": 1,'
            ' "heads": 2, "ffn_dim": 8},'
            ' "ssl": {"lr": 1e-3, "batch_size": 4, "crop_len": 32},'
            ' "summarizer": {"lr": 1e-3, "batch_size": 2}}'
        )
    pre = os.path.join(root, "pre")
    model = os.path.join(root, "model")
    scores = os.path.join(root, "scores.json")
    report = os.path.join(root, "eval.json")
    steps = [
        ["gen-synth", "--videos", "8", "--frames", "32", "--dim", "16",
         "--seed", "3", "--out", data],
        ["pretrain", "--config", cfg_path, "--data", data, "--steps", "10",
         "--seed", "3", "--out", pre],
        ["train", "--config", cfg_path, "--data", data, "--stages", "2",
         "--epochs", "2", "--folds", "2", "--seed", "3",
         "--pretrained", os.path.join(pre, "final.ck"), "--out", model],
        ["score", "--data", data, "--model-dir", model, "--out", scores],
        ["evaluate", "--data", data, "--scores", scores, "--out", report],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, f"pipeline step failed: {argv[0]}"
    return [
        os.path.join(pre, "final.ck"),
        os.path.join(model, "fold0.ck"),
        os.path.join(model, "fold1.ck"),
        os.path.join(model, "report.json"),
        scores,
        report,
    ]


def test_criterion_7_bitwise_reproducibility(capsys, tmp_path):
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first = _run_pipeline(str(tmp_path / "run_a"))
        second = _run_pipeline(str(tmp_path / "run_b"))
    for p1, p2 in zip(first, second):
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            if f1.read() != f2.read():
                failures.append(f"{os.path.basename(p1)} differs between identical runs")
    _report(capsys, 7, "bitwise-identical artifacts across identical runs", failures)


# ---------------------------------------------------------------------------
# Criterion 8: lossless round trips and corrupt-file rejection


def test_criterion_8_round_trips_and_rejection(capsys, tmp_path, tiny_cfg):
    failures = []

    recs = dp.gen_synthetic(n_videos=4, n_frames=16, d_f=8, seed=3)
    for blob in (False, True):
        d1 = tmp_path / ("blob1" if blob else "plain1")
        d2 = tmp_path / ("blob2" if blob else "plain2")
        d1.mkdir()
        d2.mkdir()
        p1, p2 = str(d1 / "data.jsonl"), str(d2 / "data.jsonl")
        dp.save_dataset(recs, p1, blob=blob)
        dp.save_dataset(dp.load_dataset(p1), p2, blob=blob)
        names = sorted(os.listdir(str(d1)))
        if names != sorted(os.listdir(str(d2))):
            failures.append(f"dataset round trip (blob={blob}) changed the file set")
        for name in names:
            with open(str(d1 / name), "rb") as f1, open(str(d2 / name), "rb") as f2:
                if f1.read() != f2.read():
                    failures.append(f"dataset round trip (blob={blob}) altered {name}")

    w = encoders.ModelWeights.initialize(tiny_cfg, 2, Rng(17))
    ck1, ck2 = str(tmp_path / "a.ck"), str(tmp_path / "b.ck")
    w.save(ck1)
    encoders.ModelWeights.load(ck1, tiny_cfg, 2).save(ck2)
    with open(ck1, "rb") as f1, open(ck2, "rb") as f2:
        blob1, blob2 = f1.read(), f2.read()
    if blob1 != blob2:
        failures.append("checkpoint save/load/save is not bitwise stable")

    bad_magic = str(tmp_path / "magic.ck")
    with open(bad_magic, "wb") as fh:
        fh.write(b"NOPE" + blob1[4:])
    try:
        tk.load_checkpoint(bad_magic)
        failures.append("corrupted magic was accepted")
    except FormatError as exc:
        if "magic" not in str(exc):
            failures.append(f"magic rejection message unclear: {exc}")

    bad_version = str(tmp_path / "version.ck")
    with open(bad_version, "wb") as fh:
        fh.write(blob1[:4] + struct.pack("<I", 99) + blob1[8:])
    try:
        tk.load_checkpoint(bad_version)
        failures.append("unknown version was accepted")
    except FormatError as exc:
        if "version" not in str(exc):
            failures.append(f"version rejection message unclear: {exc}")

    _report(capsys, 8, "lossless round trips and corrupt-file rejection", failures)
