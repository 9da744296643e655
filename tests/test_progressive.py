import numpy as np
import pytest

from spvs import dataprep as dp
from spvs import encoders, pretrain, progressive, tensorkit as tk
from spvs.errors import CapacityError, ConfigError, ContractError, DimensionError
from spvs.tensorkit import Tensor

from conftest import check_gradients


class TestConfig:
    def test_defaults(self):
        cfg = progressive.SummarizerConfig()
        assert cfg.stages == 3 and cfg.folds == 5
        assert cfg.max_frames == 512 and cfg.budget_fraction == 0.15

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            progressive.SummarizerConfig(stages=0)
        with pytest.raises(ConfigError):
            progressive.SummarizerConfig(folds=1)
        for fraction in (0.0, -0.1, 1.01):
            with pytest.raises(ConfigError):
                progressive.SummarizerConfig(budget_fraction=fraction)


class TestRefineInput:
    def test_zero_scores_identity(self, rng):
        F = Tensor(rng.normals((5, 8)))
        out = progressive.refine_input(F, Tensor(np.zeros(5)))
        np.testing.assert_array_equal(out.data, F.data)

    def test_unit_scores_double(self, rng):
        F = Tensor(rng.normals((5, 8)))
        out = progressive.refine_input(F, Tensor(np.ones(5)))
        np.testing.assert_array_equal(out.data, 2.0 * F.data)

    def test_rowwise_scaling(self, rng):
        F = Tensor(rng.normals((4, 3)))
        s = Tensor(np.array([0.0, 0.5, 1.0, 0.25]))
        out = progressive.refine_input(F, s)
        for t in range(4):
            np.testing.assert_allclose(out.data[t], (1.0 + s.data[t]) * F.data[t], atol=1e-15)

    def test_closed_form_product_through_stages(self, rng):
        # iterating refine_input gives F^n = F^0 * prod_k (1 + s^k) per row
        F0 = Tensor(rng.normals((6, 4)))
        scores = [Tensor(rng.uniforms((6,), 0.0, 1.0)) for _ in range(3)]
        F = F0
        for s in scores:
            F = progressive.refine_input(F, s)
        gain = np.prod(np.stack([1.0 + s.data for s in scores]), axis=0)
        np.testing.assert_allclose(F.data, F0.data * gain[:, None], atol=1e-10)

    def test_length_mismatch(self, rng):
        with pytest.raises(DimensionError):
            progressive.refine_input(Tensor(rng.normals((4, 3))), Tensor(np.zeros(5)))


class TestStageForward:
    def test_scores_in_unit_interval(self, tiny_weights, rng):
        F = Tensor(rng.normals((7, 8)))
        _, s = progressive.stage_forward(tiny_weights, F, 1)
        assert s.shape == (7,)
        assert np.all((s.data > 0) & (s.data < 1))

    def test_zero_head_gives_half(self, tiny_weights, rng):
        tiny_weights["head.stage2.w"].data[...] = 0.0
        tiny_weights["head.stage2.b"].data[...] = 0.0
        F = Tensor(rng.normals((5, 8)))
        _, s = progressive.stage_forward(tiny_weights, F, 2)
        np.testing.assert_array_equal(s.data, np.full(5, 0.5))

    def test_text_only_at_stage_one(self, tiny_weights, rng):
        F = Tensor(rng.normals((4, 8)))
        txt = Tensor(rng.normals((1, 8)))
        progressive.stage_forward(tiny_weights, F, 1, text_feature=txt)
        with pytest.raises(ContractError):
            progressive.stage_forward(tiny_weights, F, 2, text_feature=txt)

    def test_zero_text_feature_matches_no_text(self, tiny_weights, rng):
        F = Tensor(rng.normals((4, 8)))
        _, s_plain = progressive.stage_forward(tiny_weights, F, 1)
        _, s_zero = progressive.stage_forward(
            tiny_weights, F, 1, text_feature=Tensor(np.zeros((1, 8)))
        )
        np.testing.assert_array_equal(s_plain.data, s_zero.data)

    def test_stages_use_distinct_heads(self, tiny_weights, rng):
        F = Tensor(rng.normals((4, 8)))
        _, s1 = progressive.stage_forward(tiny_weights, F, 1)
        _, s2 = progressive.stage_forward(tiny_weights, F, 2)
        assert not np.array_equal(s1.data, s2.data)


class TestFinalScores:
    def test_single_stage_is_bitwise_passthrough(self, rng):
        s = Tensor(rng.uniforms((6,), 0.0, 1.0))
        out = progressive.final_scores([s])
        np.testing.assert_array_equal(out.data, s.data)

    def test_matches_loop_product(self, rng):
        stages = [Tensor(rng.uniforms((5,), 0.0, 1.0)) for _ in range(4)]
        out = progressive.final_scores(stages)
        expect = np.ones(5)
        for s in stages:
            expect = expect * s.data
        np.testing.assert_allclose(out.data, expect, atol=1e-15)

    def test_product_never_exceeds_any_stage(self, tiny_weights, rng):
        F0 = Tensor(rng.normals((9, 8)))
        scores, s_star = progressive.forward_stages(tiny_weights, F0, 3)
        for s in scores:
            assert np.all(s_star.data <= s.data + 1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            progressive.final_scores([])


class TestVsLoss:
    def test_perfect_prediction_zero(self):
        s = Tensor(np.array([0.2, 0.8, 0.5]))
        assert progressive.vs_loss(s, [0.2, 0.8, 0.5]).item() == 0.0

    def test_known_value(self):
        s = Tensor(np.array([0.0, 1.0]))
        # errors 0.5 and 0.5 -> mean square 0.25
        assert progressive.vs_loss(s, [0.5, 0.5]).item() == pytest.approx(0.25, abs=1e-15)

    def test_gradient_matches_finite_differences(self, tiny_weights, rng):
        F0 = Tensor(rng.normals((6, 8)))
        gt = rng.uniforms((6,), 0.0, 1.0)
        probe = [
            tiny_weights["head.stage1.w"], tiny_weights["head.stage3.b"],
            tiny_weights["ev.layer0.ffn.w1"],
        ]

        def loss():
            _, s_star = progressive.forward_stages(tiny_weights, F0, 3)
            return progressive.vs_loss(s_star, gt)

        check_gradients(loss, probe, rng, n_points=15, rtol=2e-4)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            progressive.vs_loss(Tensor(np.zeros(3)), [0.1, 0.2])


class TestPredict:
    def test_deterministic(self, tiny_weights, rng):
        cfg = progressive.SummarizerConfig(stages=3, epochs=1)
        video = rng.normals((10, 8))
        a = progressive.predict(tiny_weights, video, cfg)
        b = progressive.predict(tiny_weights, video, cfg)
        np.testing.assert_array_equal(a["final_scores"], b["final_scores"])
        assert len(a["stage_scores"]) == 3

    def test_final_is_product_of_stages(self, tiny_weights, rng):
        cfg = progressive.SummarizerConfig(stages=3, epochs=1)
        out = progressive.predict(tiny_weights, rng.normals((8, 8)), cfg)
        expect = np.prod(np.stack(out["stage_scores"]), axis=0)
        np.testing.assert_allclose(out["final_scores"], expect, atol=1e-12)

    def test_too_long_video_rejected(self, tiny_weights, rng):
        cfg = progressive.SummarizerConfig(stages=1, epochs=1)
        with pytest.raises(CapacityError, match="window"):
            progressive.predict(tiny_weights, rng.normals((65, 8)), cfg)

    def test_stage_order_matters(self, tiny_weights, rng):
        # swapping two stage heads changes the output: the pipeline is
        # genuinely sequential, not a bag of heads
        cfg = progressive.SummarizerConfig(stages=2, epochs=1)
        video = rng.normals((6, 8))
        base = progressive.predict(tiny_weights, video, cfg)["final_scores"]
        w1 = tiny_weights["head.stage1.w"].data.copy()
        b1 = tiny_weights["head.stage1.b"].data.copy()
        tiny_weights["head.stage1.w"].data[...] = tiny_weights["head.stage2.w"].data
        tiny_weights["head.stage1.b"].data[...] = tiny_weights["head.stage2.b"].data
        tiny_weights["head.stage2.w"].data[...] = w1
        tiny_weights["head.stage2.b"].data[...] = b1
        swapped = progressive.predict(tiny_weights, video, cfg)["final_scores"]
        assert not np.allclose(base, swapped)


class TestGraphFreeInference:
    """predict and correspondence_accuracy run on a detached view of the
    weights: no op result joins an autodiff graph, and the weights keep
    their requires_grad flags and gradients."""

    @staticmethod
    def _spy_results(monkeypatch):
        results = []
        real = tk._result

        def spy(data, parents, backward):
            out = real(data, parents, backward)
            results.append(out)
            return out

        monkeypatch.setattr(tk, "_result", spy)
        return results

    @staticmethod
    def _grad_state(w):
        return {
            n: (w[n].requires_grad, None if w[n].grad is None else w[n].grad.tobytes())
            for n in w.names()
        }

    def test_predict_builds_no_graph(self, tiny_weights, rng, monkeypatch):
        cfg = progressive.SummarizerConfig(stages=3, use_text=True)
        video = rng.normals((12, 8))
        tokens = [encoders.CLS_ID, 4, 5, encoders.SEP_ID, 6, encoders.PAD_ID]
        tiny_weights.freeze_text_encoder()
        tiny_weights["head.stage1.w"].grad = np.ones((8, 1))
        before = self._grad_state(tiny_weights)

        results = self._spy_results(monkeypatch)
        out = progressive.predict(tiny_weights, video, cfg, tokens)
        monkeypatch.undo()
        assert results
        assert not any(r.requires_grad or r._parents or r._backward for r in results)
        assert self._grad_state(tiny_weights) == before

        text = progressive.text_feature_for(tiny_weights, tokens)
        scores, s_star = progressive.forward_stages(tiny_weights, Tensor(video), 3, text)
        assert s_star.requires_grad
        assert out["final_scores"].tobytes() == s_star.data.tobytes()
        for got, s in zip(out["stage_scores"], scores):
            assert got.tobytes() == s.data.tobytes()

    def test_correspondence_accuracy_builds_no_graph(self, tiny_weights, rng, monkeypatch):
        corpus = [
            (f"v{i}", rng.normals((10, 8)), [encoders.CLS_ID, 4 + i, 5, encoders.SEP_ID])
            for i in range(3)
        ]
        cfg = pretrain.SSLConfig(crop_len=9, window_radius=4)
        tiny_weights["mlp_cls.w0"].grad = np.zeros((12, 8))
        before = self._grad_state(tiny_weights)

        results = self._spy_results(monkeypatch)
        acc = pretrain.correspondence_accuracy(corpus, tiny_weights, cfg, tk.Rng(5), n_pairs=6)
        monkeypatch.undo()
        assert 0.0 <= acc <= 1.0
        assert results and not any(r.requires_grad or r._parents for r in results)
        assert self._grad_state(tiny_weights) == before


class TestFolds:
    def test_partition_covers_all_ids(self):
        ids = [f"vid{i}" for i in range(100)]
        folds = [progressive.fold_of(v, seed=7, folds=5) for v in ids]
        assert set(folds) <= set(range(5))
        # roughly balanced
        counts = np.bincount(folds, minlength=5)
        assert counts.min() >= 8

    def test_stable_across_calls(self):
        assert progressive.fold_of("vid0001", 7, 5) == progressive.fold_of("vid0001", 7, 5)

    def test_seed_changes_assignment(self):
        ids = [f"vid{i}" for i in range(50)]
        a = [progressive.fold_of(v, 1, 5) for v in ids]
        b = [progressive.fold_of(v, 2, 5) for v in ids]
        assert a != b


class TestTraining:
    def _corpus(self, n=10, T=20, d=8, seed=3):
        return dp.gen_synthetic(n_videos=n, n_frames=T, d_f=d, seed=seed)

    @staticmethod
    def _enc_cfg():
        # like tiny_cfg but with room for the synthetic corpus vocabulary
        return encoders.EncoderConfig(
            d_f=8, d_w=4, video_layers=1, text_layers=1, heads=2,
            vocab_size=160, max_positions=64,
        )

    def test_train_on_reduces_loss(self, tiny_cfg, rng):
        recs = self._corpus()
        cfg = progressive.SummarizerConfig(stages=2, epochs=8, batch_size=4, lr=3e-3)
        w = encoders.ModelWeights.initialize(tiny_cfg, 2, tk.Rng(5))

        def mean_loss():
            tot = 0.0
            for r in recs:
                out = progressive.predict(w, r.features, cfg)
                gt = progressive._gt_scores(r)
                tot += float(((out["final_scores"] - gt) ** 2).mean())
            return tot / len(recs)

        before = mean_loss()
        progressive.train_on(w, recs, cfg, tk.Rng(4))
        assert mean_loss() < before

    def test_train_cv_report_shape(self):
        recs = self._corpus(n=8)
        cfg = progressive.SummarizerConfig(stages=1, epochs=1, folds=2, lr=1e-3)
        report, weights = progressive.train(recs, cfg, self._enc_cfg(), seed=7)
        assert len(report["folds"]) == 2 and len(weights) == 2
        evaluated = [v for f in report["folds"] for v in f["videos"]]
        assert sorted(evaluated) == sorted(r.id for r in recs)
        assert "tau" in report and "tau_planted" in report

    def test_train_deterministic(self):
        recs = self._corpus(n=6, T=16)
        cfg = progressive.SummarizerConfig(stages=1, epochs=1, folds=2, lr=1e-3)
        r1, w1 = progressive.train(recs, cfg, self._enc_cfg(), seed=11)
        r2, w2 = progressive.train(recs, cfg, self._enc_cfg(), seed=11)
        assert r1["tau"] == r2["tau"]
        for a, b in zip(w1, w2):
            for n in a.names():
                np.testing.assert_array_equal(a[n].data, b[n].data)

    def test_pretrained_init_keeps_fresh_heads(self, tmp_path):
        enc_cfg = self._enc_cfg()
        pre = encoders.ModelWeights.initialize(enc_cfg, 1, tk.Rng(21))
        path = str(tmp_path / "pre.ck")
        pre.save(path)
        recs = self._corpus(n=6, T=16)
        cfg = progressive.SummarizerConfig(stages=2, epochs=0, folds=2)
        _, weights = progressive.train(recs, cfg, enc_cfg, seed=3, pretrained_path=path)
        for w in weights:
            # encoder weights must come from the checkpoint
            np.testing.assert_allclose(
                w["ev.layer0.attn.wq"].data,
                pre["ev.layer0.attn.wq"].data.astype(np.float32).astype(np.float64),
            )
        # stage heads differ between folds: they stayed at fresh init
        assert not np.array_equal(
            weights[0]["head.stage1.w"].data, weights[1]["head.stage1.w"].data
        )

    def test_evaluate_video_report(self, tiny_weights):
        rec = self._corpus(n=2, T=30)[0]
        cfg = progressive.SummarizerConfig(stages=2, epochs=1)
        rep = progressive.evaluate_video(tiny_weights, rec, cfg)
        assert rep["id"] == rec.id
        assert -1.0 <= rep["tau"] <= 1.0
        assert 0.0 <= rep["f"] <= 1.0
        assert "tau_planted" in rep

    def test_evaluate_scores_matches_evaluate_video(self, tiny_weights):
        rec = self._corpus(n=2, T=30)[0]
        cfg = progressive.SummarizerConfig(stages=2, epochs=1)
        rep = progressive.evaluate_video(tiny_weights, rec, cfg)
        s_star = progressive.predict(tiny_weights, rec.features, cfg)["final_scores"]
        direct = progressive.evaluate_scores(rec, s_star, cfg.budget_fraction)
        assert {k: direct[k] for k in ("tau", "rho", "f")} == {
            k: rep[k] for k in ("tau", "rho", "f")
        }


class TestMetricMeans:
    def test_nanmean_skips_nan_rows(self):
        rows = [{"tau": 0.5, "rho": 0.2, "f": 1.0}, {"tau": float("nan"), "rho": 0.4, "f": 0.0}]
        assert progressive.metric_means(rows) == {"tau": 0.5, "rho": pytest.approx(0.3), "f": 0.5}

    def test_plain_mean_keeps_nan(self):
        rows = [{"tau": 0.5, "rho": 0.2, "f": 1.0}, {"tau": float("nan"), "rho": 0.4, "f": 0.0}]
        assert np.isnan(progressive.metric_means(rows, np.mean)["tau"])

    def test_tau_planted_only_when_every_row_has_it(self):
        rows = [{"tau": 0.1, "rho": 0.1, "f": 0.1, "tau_planted": 0.5},
                {"tau": 0.3, "rho": 0.3, "f": 0.3, "tau_planted": 0.7}]
        assert progressive.metric_means(rows)["tau_planted"] == pytest.approx(0.6)
        rows[1].pop("tau_planted")
        assert "tau_planted" not in progressive.metric_means(rows)
