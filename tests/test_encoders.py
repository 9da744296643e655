import math

import numpy as np
import pytest

from spvs import encoders, tensorkit as tk
from spvs.encoders import PAD_ID, CLS_ID, SEP_ID
from spvs.errors import CapacityError, ConfigError, ContractError, DimensionError, VocabularyError
from spvs.tensorkit import Tensor


class TestConfig:
    def test_width_head_divisibility(self):
        with pytest.raises(ConfigError):
            encoders.EncoderConfig(d_f=10, heads=4)

    def test_ffn_default_is_4x(self, tiny_cfg):
        assert tiny_cfg.ffn(tiny_cfg.d_f) == 4 * tiny_cfg.d_f


class TestPositionalEncoding:
    def test_origin_is_sin_zero(self):
        table = encoders.positional_encoding(4, 6, 64)
        assert table.data[0, 0] == 0.0

    def test_deterministic(self):
        a = encoders.positional_encoding(8, 6, 64)
        b = encoders.positional_encoding(8, 6, 64)
        np.testing.assert_array_equal(a.data, b.data)

    def test_closed_form(self):
        d = 8
        table = encoders.positional_encoding(12, d, 64).data
        for t in (0, 3, 11):
            for k in range(d // 2):
                angle = t / 10000 ** (2 * k / d)
                assert table[t, 2 * k] == pytest.approx(math.sin(angle), abs=1e-12)
                assert table[t, 2 * k + 1] == pytest.approx(math.cos(angle), abs=1e-12)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            encoders.positional_encoding(100, 4, 64)


class TestEncodeVideo:
    def test_shapes_with_and_without_cls(self, tiny_weights, rng):
        F = Tensor(rng.normals((5, 8)))
        assert encoders.encode_video(tiny_weights, F, True).shape == (6, 8)
        assert encoders.encode_video(tiny_weights, F, False).shape == (5, 8)

    def test_zero_layer_config_is_input_plus_positions(self, rng):
        cfg = encoders.EncoderConfig(d_f=8, d_w=4, video_layers=0, text_layers=0,
                                     heads=2, vocab_size=16, max_positions=64)
        w = encoders.ModelWeights.initialize(cfg, 1, tk.Rng(0))
        F = Tensor(rng.normals((5, 8)))
        out = encoders.encode_video(w, F, prepend_cls=False)
        pos = encoders.positional_encoding(5, 8, 64).data
        np.testing.assert_array_equal(out.data, F.data + pos)

    def test_single_layer_single_head_matches_attention_oracle(self, rng):
        cfg = encoders.EncoderConfig(d_f=4, d_w=4, video_layers=1, text_layers=0,
                                     heads=1, vocab_size=16, max_positions=16)
        w = encoders.ModelWeights.initialize(cfg, 1, tk.Rng(11))
        F = Tensor(rng.normals((3, 4)))
        out = encoders.encode_video(w, F, prepend_cls=False)

        # hand-rolled pre-LN block with explicit attention formulas
        from scipy.special import erf

        def ln(x, g, b):
            mu = x.mean(axis=1, keepdims=True)
            var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
            return (x - mu) / np.sqrt(var + 1e-5) * g + b

        def gelu(x):
            return x * 0.5 * (1 + erf(x / math.sqrt(2)))

        p = {k: t.data for k, t in w.params.items()}
        x = F.data + encoders.positional_encoding(3, 4, 16).data
        a = ln(x, p["ev.layer0.ln1.g"], p["ev.layer0.ln1.b"])
        q = a @ p["ev.layer0.attn.wq"] + p["ev.layer0.attn.bq"]
        k = a @ p["ev.layer0.attn.wk"] + p["ev.layer0.attn.bk"]
        v = a @ p["ev.layer0.attn.wv"] + p["ev.layer0.attn.bv"]
        scores = q @ k.T / math.sqrt(4)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        x = x + (attn @ v) @ p["ev.layer0.attn.wo"] + p["ev.layer0.attn.bo"]
        f = ln(x, p["ev.layer0.ln2.g"], p["ev.layer0.ln2.b"])
        f = gelu(f @ p["ev.layer0.ffn.w1"] + p["ev.layer0.ffn.b1"])
        x = x + f @ p["ev.layer0.ffn.w2"] + p["ev.layer0.ffn.b2"]
        x = ln(x, p["ev.ln_f.g"], p["ev.ln_f.b"])
        np.testing.assert_allclose(out.data, x, atol=1e-10)

    def test_width_mismatch(self, tiny_weights, rng):
        with pytest.raises(DimensionError):
            encoders.encode_video(tiny_weights, Tensor(rng.normals((5, 6))), False)

    def test_deterministic(self, tiny_weights, rng):
        F = Tensor(rng.normals((7, 8)))
        a = encoders.encode_video(tiny_weights, F, True).data
        b = encoders.encode_video(tiny_weights, F, True).data
        np.testing.assert_array_equal(a, b)


class TestEncodeText:
    def test_shape(self, tiny_weights):
        out = encoders.encode_text(tiny_weights, [CLS_ID, 5, 6, SEP_ID, 7])
        assert out.shape == (5, 4)

    def test_pad_suffix_leaves_nonpad_outputs(self, tiny_weights):
        base = [CLS_ID, 5, 6, SEP_ID, 7]
        z1 = encoders.encode_text(tiny_weights, base).data
        z2 = encoders.encode_text(tiny_weights, base + [PAD_ID] * 4).data
        np.testing.assert_allclose(z2[: len(base)], z1, atol=1e-10)

    def test_zero_layer_is_embedding_plus_position(self):
        cfg = encoders.EncoderConfig(d_f=8, d_w=4, video_layers=0, text_layers=0,
                                     heads=2, vocab_size=16, max_positions=64)
        w = encoders.ModelWeights.initialize(cfg, 1, tk.Rng(2))
        ids = [CLS_ID, 5, 9]
        out = encoders.encode_text(w, ids).data
        expect = w["embed.word"].data[ids] + encoders.positional_encoding(3, 4, 64).data
        np.testing.assert_array_equal(out, expect)

    def test_unknown_token_id(self, tiny_weights):
        with pytest.raises(VocabularyError):
            encoders.encode_text(tiny_weights, [CLS_ID, 99])

    def test_missing_cls(self, tiny_weights):
        with pytest.raises(ContractError):
            encoders.encode_text(tiny_weights, [5, 6])


class TestHeads:
    def test_mlp_s_output_in_unit_interval(self, tiny_weights, rng):
        g = Tensor(rng.normals((3, 8)) * 10)
        out = encoders.mlp_s(tiny_weights, g)
        assert np.all((out.data > 0) & (out.data < 1))

    def test_mlp_t_output_width(self, tiny_weights, rng):
        out = encoders.mlp_t(tiny_weights, Tensor(rng.normals((2, 4))))
        assert out.shape == (2, 8)

    def test_mlp_cls_zero_weights_gives_half(self, tiny_cfg):
        w = encoders.ModelWeights.initialize(tiny_cfg, 1, tk.Rng(0))
        for name, p in w.params.items():
            if name.startswith("mlp_cls"):
                p.data[...] = 0.0
        out = encoders.mlp_cls(w, Tensor(np.ones((1, 8))), Tensor(np.ones((1, 4))))
        assert out.item() == 0.5


class TestWeightStore:
    def test_param_count_matches_closed_form(self, tiny_cfg):
        for stages in (1, 2, 4):
            w = encoders.ModelWeights.initialize(tiny_cfg, stages, tk.Rng(1))
            assert w.param_count() == encoders.expected_param_count(tiny_cfg, stages)

    def test_init_deterministic(self, tiny_cfg):
        w1 = encoders.ModelWeights.initialize(tiny_cfg, 2, tk.Rng(7))
        w2 = encoders.ModelWeights.initialize(tiny_cfg, 2, tk.Rng(7))
        for name in w1.names():
            np.testing.assert_array_equal(w1[name].data, w2[name].data)

    def test_save_load_round_trip(self, tiny_weights, tmp_path):
        path = str(tmp_path / "w.ck")
        tiny_weights.save(path)
        loaded = encoders.ModelWeights.load(path, tiny_weights.cfg, tiny_weights.stages)
        for name in tiny_weights.names():
            np.testing.assert_array_equal(
                loaded[name].data, tiny_weights[name].data.astype(np.float32).astype(np.float64)
            )

    def test_load_pretrained_keeps_stage_heads(self, tiny_cfg, tmp_path):
        pre = encoders.ModelWeights.initialize(tiny_cfg, 1, tk.Rng(1))
        path = str(tmp_path / "pre.ck")
        pre.save(path)
        fresh = encoders.ModelWeights.initialize(tiny_cfg, 3, tk.Rng(2))
        head_before = fresh["head.stage2.w"].data.copy()
        fresh.load_pretrained(path)
        np.testing.assert_array_equal(fresh["head.stage2.w"].data, head_before)
        np.testing.assert_allclose(
            fresh["ev.layer0.attn.wq"].data,
            pre["ev.layer0.attn.wq"].data.astype(np.float32).astype(np.float64),
        )

    def test_detached_shares_arrays_without_grad(self, tiny_weights):
        view = tiny_weights.detached()
        assert view.cfg is tiny_weights.cfg and view.stages == tiny_weights.stages
        assert view.names() == tiny_weights.names()
        for n in tiny_weights.names():
            assert view[n].data is tiny_weights[n].data
            assert not view[n].requires_grad and tiny_weights[n].requires_grad
        assert view.trainable() == {}

    def test_freeze_text_encoder(self, tiny_weights):
        tiny_weights.freeze_text_encoder()
        assert not tiny_weights["embed.word"].requires_grad
        assert not tiny_weights["et.layer0.attn.wq"].requires_grad
        assert tiny_weights["ev.layer0.attn.wq"].requires_grad


class TestAttentionProperties:
    def test_attention_rows_are_convex_weights(self, rng):
        scores = Tensor(rng.normals((5, 5)))
        attn = tk.softmax_rows(scores)
        assert np.all(attn.data >= 0)
        np.testing.assert_allclose(attn.data.sum(axis=1), np.ones(5), atol=1e-9)
