import math
import re
from itertools import product

import numpy as np
import pytest

from spvs import dataprep as dp
from spvs import encoders, pretrain, tensorkit as tk
from spvs.errors import ConfigError, ContractError, NumericsError
from spvs.tensorkit import Tensor

from conftest import check_gradients


def make_corpus(cfg, n_videos, T, rng, vocab_size=16):
    """Tiny (id, features, token_ids) corpus with distinct per-video text."""
    corpus = []
    for v in range(n_videos):
        feats = rng.normals((T, cfg.d_f))
        # CLS + a few word ids + SEP + padding, all within the tiny vocab
        tokens = [encoders.CLS_ID, 4 + v % (vocab_size - 5), 5, encoders.SEP_ID, 6, 0, 0]
        corpus.append((f"v{v}", feats, tokens))
    return corpus


class TestSSLConfig:
    def test_defaults(self):
        cfg = pretrain.SSLConfig()
        assert cfg.margin == pytest.approx(math.sqrt(2.0))
        assert cfg.window_radius == 4
        assert cfg.alpha == 1.0 and cfg.beta == 5.0
        assert cfg.crop_len == 256 and cfg.negative_prob == 0.5

    def test_crop_must_cover_window(self):
        with pytest.raises(ConfigError):
            pretrain.SSLConfig(window_radius=4, crop_len=8)


class TestCoarseLoss:
    def test_half_probability_gives_ln2(self, tiny_weights):
        # zero out the head so the blend is exactly sigmoid(0) = 0.5
        for name, p in tiny_weights.params.items():
            if name.startswith("mlp_cls"):
                p.data[...] = 0.0
        g0 = Tensor(np.ones((1, 8)))
        z0 = Tensor(np.ones((1, 4)))
        loss, p_c = pretrain.coarse_loss(tiny_weights, g0, z0, 1)
        assert p_c == 0.5
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)
        loss0, _ = pretrain.coarse_loss(tiny_weights, g0, z0, 0)
        assert loss0.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_clamp_keeps_loss_finite(self, tiny_weights):
        for name, p in tiny_weights.params.items():
            if name == "mlp_cls.b2":
                p.data[...] = 1e4  # drives sigmoid to 1 before the clamp
        g0 = Tensor(np.zeros((1, 8)))
        z0 = Tensor(np.zeros((1, 4)))
        loss, p_c = pretrain.coarse_loss(tiny_weights, g0, z0, 0)
        assert np.isfinite(loss.item())
        assert p_c == pytest.approx(1.0 - 1e-7)

    def test_gradient_matches_finite_differences(self, tiny_weights, rng):
        g0 = Tensor(rng.normals((1, 8)), requires_grad=True)
        z0 = Tensor(rng.normals((1, 4)), requires_grad=True)
        params = [g0, z0] + [
            p for n, p in tiny_weights.params.items() if n.startswith("mlp_cls")
        ]
        check_gradients(
            lambda: pretrain.coarse_loss(tiny_weights, g0, z0, 1)[0],
            params, rng, n_points=15,
        )


class TestHausdorff:
    @staticmethod
    def brute(A, B):
        def unit(M):
            n = np.sqrt((M**2).sum(axis=1, keepdims=True))
            return M / np.maximum(n, 1e-300)

        A, B = unit(np.asarray(A, float)), unit(np.asarray(B, float))
        d_ab = max(min(np.linalg.norm(a - b) for b in B) for a in A)
        d_ba = max(min(np.linalg.norm(a - b) for a in A) for b in B)
        return max(d_ab, d_ba)

    def test_identical_sets_zero(self, rng):
        A = rng.normals((4, 6))
        d = pretrain.hausdorff_distance(Tensor(A), Tensor(A.copy()))
        assert d.item() == pytest.approx(0.0, abs=1e-12)

    def test_opposite_unit_vectors(self):
        A = Tensor(np.array([[1.0, 0.0]]))
        B = Tensor(np.array([[-1.0, 0.0]]))
        assert pretrain.hausdorff_distance(A, B).item() == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_unit_vectors(self):
        A = Tensor(np.array([[1.0, 0.0]]))
        B = Tensor(np.array([[0.0, 1.0]]))
        assert pretrain.hausdorff_distance(A, B).item() == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            A = rng.normals((1 + rng.randint(8), 5))
            B = rng.normals((1 + rng.randint(8), 5))
            got = pretrain.hausdorff_distance(Tensor(A), Tensor(B)).item()
            assert got == pytest.approx(self.brute(A, B), abs=1e-12)

    def test_symmetric(self, rng):
        A = rng.normals((5, 4))
        B = rng.normals((3, 4))
        d1 = pretrain.hausdorff_distance(Tensor(A), Tensor(B)).item()
        d2 = pretrain.hausdorff_distance(Tensor(B), Tensor(A)).item()
        assert d1 == pytest.approx(d2, abs=1e-15)

    def test_scale_invariant(self, rng):
        A = rng.normals((4, 4))
        B = rng.normals((4, 4))
        d1 = pretrain.hausdorff_distance(Tensor(A), Tensor(B)).item()
        d2 = pretrain.hausdorff_distance(Tensor(7.0 * A), Tensor(0.2 * B)).item()
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_subgradient_matches_finite_differences(self, rng):
        A = Tensor(rng.normals((4, 5)), requires_grad=True)
        B = Tensor(rng.normals((3, 5)), requires_grad=True)
        check_gradients(
            lambda: pretrain.hausdorff_distance(A, B), [A, B], rng, n_points=15
        )

    def test_empty_set_rejected(self, rng):
        with pytest.raises(ContractError):
            pretrain.hausdorff_distance(Tensor(np.zeros((0, 3))), Tensor(rng.normals((2, 3))))


class TestFineLoss:
    def test_positive_pair_is_squared_distance(self):
        d = Tensor(0.7)
        assert pretrain.fine_loss(d, 1, math.sqrt(2.0)).item() == pytest.approx(0.49, abs=1e-12)

    def test_negative_pair_at_unit_distance(self):
        # margin sqrt(2) minus d^2 = sqrt(2) - 1
        d = Tensor(1.0)
        out = pretrain.fine_loss(d, 0, math.sqrt(2.0))
        assert out.item() == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_negative_pair_beyond_margin_clips_to_zero(self):
        d = Tensor(1.5)  # d^2 = 2.25 > sqrt(2)
        assert pretrain.fine_loss(d, 0, math.sqrt(2.0)).item() == 0.0


class TestMaskFrame:
    def test_replaces_exactly_one_row(self, tiny_weights, rng):
        F = Tensor(rng.normals((6, 8)))
        masked, t, target = pretrain.mask_frame(tiny_weights, F, rng)
        assert masked.shape == (6, 8)
        np.testing.assert_array_equal(masked.data[t], tiny_weights["mask_token"].data)
        np.testing.assert_array_equal(target.data[0], F.data[t])
        keep = [i for i in range(6) if i != t]
        np.testing.assert_array_equal(masked.data[keep], F.data[keep])

    def test_index_roughly_uniform(self, tiny_weights, rng):
        T = 8
        F = Tensor(rng.normals((T, 8)))
        counts = np.zeros(T)
        n = 8000
        for _ in range(n):
            _, t, _ = pretrain.mask_frame(tiny_weights, F, rng)
            counts[t] += 1
        freqs = counts / n
        assert freqs.min() > 0.10 and freqs.max() < 0.15


class TestRecoverFrame:
    def test_blend_is_convex_in_ps(self, tiny_weights, rng):
        F = Tensor(rng.normals((10, 8)))
        masked, t, _ = pretrain.mask_frame(tiny_weights, F, rng)
        G = encoders.encode_video(tiny_weights, masked, prepend_cls=True)
        f_hat, p_s = pretrain.recover_frame(tiny_weights, masked, G, t, 2)
        assert 0.0 < p_s.item() < 1.0
        # endpoints: force the gate shut/open by rebuilding the blend by hand
        r_rows = []
        g_t = tk.narrow(G, t + 1, 1)
        f2 = tk.matmul(g_t, tiny_weights["w2"]).data
        # with p_s -> 0 the blend must approach the global prediction
        blend = f_hat.data
        f1 = (blend - (1 - p_s.item()) * f2) / p_s.item()
        recon = p_s.item() * f1 + (1 - p_s.item()) * f2
        np.testing.assert_allclose(recon, blend, atol=1e-10)

    def test_window_zero_padding_at_edges(self, tiny_weights, rng):
        # masking the first frame forces k leading zero rows; must not crash
        F = Tensor(rng.normals((5, 8)))
        masked = tk.concat(
            [tk.reshape(tiny_weights["mask_token"], (1, 8)), tk.narrow(F, 1, 4)], axis=0
        )
        G = encoders.encode_video(tiny_weights, masked, prepend_cls=True)
        f_hat, _ = pretrain.recover_frame(tiny_weights, masked, G, 0, 3)
        assert f_hat.shape == (1, 8)
        assert np.isfinite(f_hat.data).all()

    def test_recovery_loss_value_and_gradient(self, rng):
        d_f = 6
        f_hat = Tensor(rng.normals((1, d_f)), requires_grad=True)
        f_t = Tensor(rng.normals((1, d_f)))
        loss = pretrain.recovery_loss(f_hat, f_t, d_f)
        expect = ((f_hat.data - f_t.data) ** 2).sum() / d_f
        assert loss.item() == pytest.approx(expect, abs=1e-12)
        tk.backward(loss)
        np.testing.assert_allclose(f_hat.grad, 2.0 / d_f * (f_hat.data - f_t.data), atol=1e-12)


class TestSampling:
    def test_negative_rate_near_half(self, tiny_cfg, rng):
        cfg = pretrain.SSLConfig(crop_len=16, window_radius=2)
        corpus = make_corpus(tiny_cfg, 6, 12, rng)
        n = 10000
        neg = sum(
            1 for _ in range(n) if pretrain.sample_pair(corpus, rng, cfg).y == 0
        )
        assert 0.48 < neg / n < 0.52

    def test_negative_never_own_text(self, tiny_cfg, rng):
        cfg = pretrain.SSLConfig(crop_len=16, window_radius=2, negative_prob=1.0)
        corpus = make_corpus(tiny_cfg, 5, 12, rng)
        for _ in range(500):
            s = pretrain.sample_pair(corpus, rng, cfg)
            assert s.y == 0 and s.text_id != s.video_id

    def test_crop_respects_length(self, tiny_cfg, rng):
        cfg = pretrain.SSLConfig(crop_len=10, window_radius=2)
        corpus = make_corpus(tiny_cfg, 3, 40, rng)
        for _ in range(50):
            s = pretrain.sample_pair(corpus, rng, cfg)
            assert s.video.shape[0] == 10

    def test_single_video_corpus_rejected(self, tiny_cfg, rng):
        cfg = pretrain.SSLConfig(crop_len=16, window_radius=2)
        with pytest.raises(ConfigError):
            pretrain.sample_pair(make_corpus(tiny_cfg, 1, 12, rng), rng, cfg)

    def test_word_token_rows_skips_specials(self):
        ids = [encoders.CLS_ID, 5, encoders.SEP_ID, 7, encoders.PAD_ID]
        np.testing.assert_array_equal(pretrain.word_token_rows(ids), [1, 3])


class TestSslStep:
    def _setup(self, tiny_cfg, rng, **over):
        cfg = pretrain.SSLConfig(crop_len=16, window_radius=2, lr=1e-3, **over)
        w = encoders.ModelWeights.initialize(tiny_cfg, 1, tk.Rng(31))
        corpus = make_corpus(tiny_cfg, 4, 12, rng)
        return cfg, w, corpus

    def test_total_is_weighted_sum(self, tiny_cfg, rng):
        cfg, w, corpus = self._setup(tiny_cfg, rng, alpha=0.7, beta=2.5)
        s = pretrain.sample_pair(corpus, rng, cfg)
        out = pretrain.ssl_forward(w, [s], cfg, rng)
        expect = (
            float(out["l1"].data)
            + cfg.alpha * float(out["l2"].data)
            + cfg.beta * float(out["l3"].data)
        )
        assert float(out["total"].data) == pytest.approx(expect, abs=1e-12)

    def test_alpha_beta_zero_reduces_to_coarse(self, tiny_cfg, rng):
        cfg, w, corpus = self._setup(tiny_cfg, rng, alpha=0.0, beta=0.0)
        s = pretrain.sample_pair(corpus, rng, cfg)
        out = pretrain.ssl_forward(w, [s], cfg, rng)
        assert float(out["total"].data) == pytest.approx(float(out["l1"].data), abs=1e-15)

    def test_beta_zero_gives_no_smoothness_gate_gradient(self, tiny_cfg, rng):
        # the gate p_s feeds the loss only through the recovery term
        cfg, w, corpus = self._setup(tiny_cfg, rng, beta=0.0)
        s = pretrain.sample_pair(corpus, rng, cfg)
        out = pretrain.ssl_forward(w, [s], cfg, rng)
        tk.backward(out["total"])
        for name in w.names():
            if name.startswith("mlp_s"):
                g = w[name].grad
                assert g is None or not g.any(), name

    def test_step_report_bookkeeping(self, tiny_cfg, rng):
        cfg, w, corpus = self._setup(tiny_cfg, rng)
        opt = tk.Adam(w.trainable(), lr=cfg.lr)
        batch = [pretrain.sample_pair(corpus, rng, cfg) for _ in range(4)]
        rep = pretrain.ssl_step(batch, w, opt, cfg, rng)
        assert set(rep) == {"total", "l1", "l2", "l3", "pc_acc"}
        assert 0.0 <= rep["pc_acc"] <= 1.0
        assert np.isfinite(rep["total"])

    def test_full_loss_gradients_match_finite_differences(self, tiny_cfg, rng):
        cfg, w, corpus = self._setup(tiny_cfg, rng)
        # freeze the sampling so the loss is a deterministic function of weights
        s = pretrain.sample_pair(corpus, rng, cfg)
        probe = [
            w["ev.layer0.attn.wq"], w["mask_token"], w["w1"], w["w2"],
            w["mlp_s.w0"], w["mlp_t.w0"], w["mlp_cls.w0"], w["embed.word"],
        ]

        def loss():
            mask_rng = tk.Rng(77)
            return pretrain.ssl_forward(w, [s], cfg, mask_rng)["total"]

        check_gradients(loss, probe, rng, n_points=20, rtol=2e-4)

    def test_short_run_decreases_loss(self, tiny_cfg, rng):
        cfg, w, corpus = self._setup(tiny_cfg, rng)
        cfg.steps = 120
        cfg.batch_size = 4
        history = pretrain.pretrain(corpus, w, cfg, tk.Rng(3))
        early = np.mean([h["total"] for h in history[:20]])
        late = np.mean([h["total"] for h in history[-20:]])
        assert late < early

    def test_overflow_names_the_step(self, tiny_cfg, rng):
        cfg, w, corpus = self._setup(tiny_cfg, rng)
        cfg.steps = 5
        cfg.batch_size = 2
        corpus[0][1][:, 0] = 1e308
        with np.errstate(all="ignore"), pytest.raises(NumericsError) as info:
            pretrain.pretrain(corpus, w, cfg, tk.Rng(3))
        assert re.fullmatch(
            r"step [1-5]: \w+: operation produced non-finite values", str(info.value)
        ), str(info.value)

    def test_pretrain_is_deterministic(self, tiny_cfg, rng):
        def run():
            cfg, w, corpus = self._setup(tiny_cfg, tk.Rng(8))
            cfg.steps = 10
            cfg.batch_size = 2
            pretrain.pretrain(corpus, w, cfg, tk.Rng(5))
            return {n: w[n].data.copy() for n in w.names()}

        a, b = run(), run()
        for n in a:
            np.testing.assert_array_equal(a[n], b[n])


class _Replay:
    """Stands in for the masking Rng: randint returns recorded draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def randint(self, n):
        t = self.draws.pop(0)
        assert 0 <= t < n
        return t


class TestBatchedSslForward:
    """One ssl_forward over a mixed batch (both labels, different mask
    positions, two crop lengths, two token lengths) against one-sample
    calls on the same mask draws."""

    PROBE = ("ev.layer0.attn.wq", "mask_token", "cls_feature", "w1", "w2", "mlp_s.w0",
             "mlp_t.w0", "mlp_cls.w0", "embed.word", "et.layer0.ffn.w1", "tv.layer0.attn.wv")

    def _setup(self, tiny_cfg):
        rng = tk.Rng(404)
        cfg = pretrain.SSLConfig(crop_len=10, window_radius=2, alpha=2.0, beta=1.0)
        w = encoders.ModelWeights.initialize(tiny_cfg, 1, tk.Rng(31))
        short = [encoders.CLS_ID, 5, 6, encoders.SEP_ID, 7, 0, 0]
        long = [encoders.CLS_ID, 9, encoders.SEP_ID, 4, 8, 10, encoders.SEP_ID, 0, 0]
        layout = [(10, short, 1), (7, short, 0), (10, long, 0), (7, short, 1),
                  (10, short, 0), (10, long, 1)]
        samples = [
            pretrain.PairSample(video=rng.normals((T, tiny_cfg.d_f)), token_ids=tokens, y=y)
            for T, tokens, y in layout
        ]
        draw = tk.Rng(77)
        ts = [draw.randint(s.video.shape[0]) for s in samples]
        assert len(set(ts)) > 2
        return cfg, w, samples, ts

    @staticmethod
    def _grads(w, out):
        w_params = w.trainable()
        for p in w_params.values():
            p.grad = None
        tk.backward(out["total"])
        return {n: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for n, p in w_params.items()}

    def test_matches_one_sample_calls(self, tiny_cfg):
        cfg, w, samples, ts = self._setup(tiny_cfg)
        batch = pretrain.ssl_forward(w, samples, cfg, tk.Rng(77))
        batch_grads = self._grads(w, batch)
        singles = [pretrain.ssl_forward(w, [s], cfg, _Replay([t])) for s, t in zip(samples, ts)]
        single_grads = [self._grads(w, out) for out in singles]

        each = np.array([[float(o[k].data) for k in ("l1", "l2", "l3")] for o in singles])
        np.testing.assert_allclose(batch["losses"], each, rtol=1e-10, atol=0)
        for key, col in (("l1", 0), ("l2", 1), ("l3", 2)):
            assert float(batch[key].data) == pytest.approx(each[:, col].mean(), rel=1e-10)
        mean_total = np.mean([float(o["total"].data) for o in singles])
        assert float(batch["total"].data) == pytest.approx(mean_total, rel=1e-10)
        np.testing.assert_allclose(batch["p_c"], [o["p_c"][0] for o in singles], rtol=1e-10)
        np.testing.assert_allclose(batch["p_s"], [o["p_s"][0] for o in singles], rtol=1e-10)
        np.testing.assert_array_equal(batch["y"], [s.y for s in samples])
        for name, g in batch_grads.items():
            expect = np.mean([sg[name] for sg in single_grads], axis=0)
            # relative to the tensor's largest element; the 1e-15 floor covers
            # gradients that are zero in exact arithmetic (the key bias: softmax
            # ignores a shift shared by every score of a row)
            err = np.abs(g - expect).max()
            assert err <= 1e-10 * np.abs(expect).max() + 1e-15, (name, err)

    def test_mixed_batch_gradients_match_finite_differences(self, tiny_cfg, rng):
        cfg, w, samples, ts = self._setup(tiny_cfg)
        probe = [w[name] for name in self.PROBE]
        check_gradients(
            lambda: pretrain.ssl_forward(w, samples, cfg, _Replay(ts))["total"],
            probe, rng, n_points=30, rtol=2e-4,
        )

    def test_mask_draws_in_sample_order(self, tiny_cfg):
        cfg, w, samples, ts = self._setup(tiny_cfg)
        rng = tk.Rng(77)
        pretrain.ssl_forward(w, samples, cfg, rng)
        follow = tk.Rng(77)
        for s in samples:
            follow.randint(s.video.shape[0])
        assert rng.next_u64() == follow.next_u64()

    def test_rank_generic_helpers_match_single_calls(self, tiny_weights, rng):
        F = rng.normals((3, 9, 8))
        masked, t, target = pretrain.mask_frame(tiny_weights, Tensor(F), tk.Rng(3))
        replay = tk.Rng(3)
        for i in range(3):
            one, ti, tgt = pretrain.mask_frame(tiny_weights, Tensor(F[i]), replay)
            assert int(ti) == int(t[i])
            np.testing.assert_array_equal(one.data, masked.data[i])
            np.testing.assert_array_equal(tgt.data, target.data[i])
        G = encoders.encode_video(tiny_weights, masked, prepend_cls=True)
        f_hat, p_s = pretrain.recover_frame(tiny_weights, masked, G, t, 2)
        assert f_hat.shape == (3, 1, 8) and p_s.shape == (3, 1, 1)
        for i in range(3):
            G1 = encoders.encode_video(tiny_weights, Tensor(masked.data[i]), prepend_cls=True)
            f1, p1 = pretrain.recover_frame(tiny_weights, Tensor(masked.data[i]), G1, t[i], 2)
            np.testing.assert_allclose(f_hat.data[i], f1.data, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(p_s.data[i], p1.data, rtol=1e-10)

    def test_batched_hausdorff_uses_each_member_list(self, rng):
        A = rng.normals((2, 5, 4))
        B = rng.normals((2, 6, 4))
        rows = [np.array([0, 2, 3]), np.array([1, 5])]
        got = pretrain.hausdorff_distance(Tensor(A), Tensor(B), rows).data
        for i in range(2):
            one = pretrain.hausdorff_distance(Tensor(A[i]), Tensor(B[i][rows[i]])).item()
            assert got[i] == pytest.approx(one, abs=1e-12)
