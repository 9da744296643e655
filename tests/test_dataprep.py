import json

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from spvs import dataprep as dp
from spvs.errors import ConfigError, DataError


class TestCleanText:
    def test_strips_urls_and_shouting(self):
        assert dp.clean_text("Visit https://x.co NOW!!") == ["visit", "now"]

    def test_strips_emails(self):
        assert dp.clean_text("mail bob@example.com today") == ["mail", "today"]

    def test_keeps_internal_apostrophe_and_hyphen(self):
        assert dp.clean_text("don't re-heat") == ["don't", "re-heat"]

    def test_strips_edge_punctuation(self):
        assert dp.clean_text("'hello' -there-") == ["hello", "there"]

    def test_lemmatizes_plurals_and_verb_forms(self):
        assert dp.clean_text("dogs running jumped cities") == ["dog", "run", "jump", "city"]

    def test_irregulars(self):
        assert dp.clean_text("children went") == ["child", "go"]

    def test_empty_and_symbol_only(self):
        assert dp.clean_text("") == []
        assert dp.clean_text("!!! ??? ***") == []

    def test_idempotent_on_examples(self):
        for raw in [
            "Visit https://x.co NOW!!",
            "The dogs were running home",
            "Top-10 recipes, don't miss these!",
            "geese mice feet",
        ]:
            once = dp.clean_text(raw)
            twice = dp.clean_text(" ".join(once))
            assert once == twice, raw

    if HAVE_HYPOTHESIS:

        @settings(max_examples=200, deadline=None)
        @given(st.text(max_size=80))
        def test_idempotent_fuzz(self, raw):
            once = dp.clean_text(raw)
            assert dp.clean_text(" ".join(once)) == once

        @settings(max_examples=100, deadline=None)
        @given(st.text(max_size=60))
        def test_output_charset(self, raw):
            for w in dp.clean_text(raw):
                assert w
                assert all(c in "abcdefghijklmnopqrstuvwxyz0123456789'-" for c in w)
                assert w[0] not in "'-" and w[-1] not in "'-"


class TestTokens:
    def test_pretrain_length_is_70(self):
        assert dp.token_length("pretrain") == 70

    def test_summarize_length_is_33(self):
        assert dp.token_length("summarize") == 33

    def test_assembled_stream_layout(self):
        vocab = dp.Vocab(["cooking", "pasta", "how", "easy"])
        bundle = dp.TextBundle(
            category=["cooking"], search_query=["pasta"], title=["how"], description=["easy"]
        )
        ids = dp.assemble_tokens(bundle, vocab, mode="summarize")
        assert len(ids) == 33
        assert ids[0] == vocab.encode(dp.CLS)
        assert ids[1] == vocab.encode("cooking")  # category max len 1, no padding
        assert ids[2] == vocab.encode(dp.SEP)
        assert ids[3] == vocab.encode("pasta")
        assert ids[4:6] == [vocab.encode(dp.PAD)] * 2  # query padded to 3
        assert ids[6] == vocab.encode(dp.SEP)
        # stream ends inside the padded description, never with a trailing SEP
        assert ids[-1] == vocab.encode(dp.PAD)
        assert ids.count(vocab.encode(dp.SEP)) == 3

    def test_truncation_to_field_maximum(self):
        words = [f"w{i}" for i in range(30)]
        vocab = dp.Vocab(words)
        bundle = dp.TextBundle(category=words, search_query=[], title=[], description=[])
        ids = dp.assemble_tokens(bundle, vocab, mode="summarize")
        assert ids[1] == vocab.encode("w0")
        assert ids[2] == vocab.encode(dp.SEP)  # category truncated to 1 word

    def test_unknown_words_map_to_unk(self):
        vocab = dp.Vocab(["known"])
        bundle = dp.TextBundle(category=["mystery"])
        ids = dp.assemble_tokens(bundle, vocab, mode="summarize")
        assert ids[1] == vocab.encode(dp.UNK)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            dp.assemble_tokens(dp.TextBundle(), dp.Vocab(), mode="finetune")


class TestVocab:
    def test_reserved_ids(self):
        v = dp.Vocab()
        assert v.encode(dp.PAD) == 0
        assert v.encode(dp.CLS) == 1
        assert v.encode(dp.SEP) == 2
        assert v.encode(dp.UNK) == 3

    def test_unknown_word_is_unk(self):
        assert dp.Vocab().encode("zebra") == 3

    def test_add_is_stable(self):
        v = dp.Vocab()
        a = v.add("apple")
        assert v.add("apple") == a

    def test_min_size_padding(self):
        v = dp.corpus_vocab([], min_size=40)
        assert len(v) == 40


class TestSubsample:
    def test_30fps_stride_15(self):
        feats = np.arange(60, dtype=np.float64).reshape(60, 1)
        kept, picks = dp.subsample(feats, 30.0)
        np.testing.assert_array_equal(picks, np.arange(0, 60, 15))
        np.testing.assert_array_equal(kept[:, 0], [0.0, 15.0, 30.0, 45.0])

    def test_2fps_identity(self):
        feats = np.ones((10, 2))
        kept, picks = dp.subsample(feats, 2.0)
        np.testing.assert_array_equal(picks, np.arange(10))
        assert kept.shape == (10, 2)

    def test_below_target_passthrough_with_warning(self):
        with pytest.warns(UserWarning, match="below target"):
            kept, picks = dp.subsample(np.ones((6, 2)), 1.0)
        np.testing.assert_array_equal(picks, np.arange(6))


class TestDatasetIO:
    def _records(self):
        return dp.gen_synthetic(n_videos=3, n_frames=24, d_f=6, seed=11)

    def test_round_trip_inline(self, tmp_path):
        recs = self._records()
        path = str(tmp_path / "data.jsonl")
        dp.save_dataset(recs, path)
        loaded = dp.load_dataset(path)
        assert [r.id for r in loaded] == [r.id for r in recs]
        for a, b in zip(recs, loaded):
            np.testing.assert_array_equal(
                b.features, a.features.astype(np.float32).astype(np.float64)
            )
            np.testing.assert_array_equal(b.picks, a.picks)
            assert b.text.to_json() == a.text.to_json()
            np.testing.assert_array_equal(b.planted_scores, a.planted_scores)

    def test_blob_sidecar_matches_inline(self, tmp_path):
        recs = self._records()
        p1 = str(tmp_path / "inline.jsonl")
        p2 = str(tmp_path / "blob.jsonl")
        dp.save_dataset(recs, p1)
        dp.save_dataset(recs, p2, blob=True)
        a = dp.load_dataset(p1)
        b = dp.load_dataset(p2)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.features, rb.features)
        # the sidecar really exists and the jsonl has no inline features
        first = json.loads(open(p2).readline())
        assert "features" not in first and "features_blob" in first
        assert (tmp_path / first["features_blob"]["path"]).exists()

    def test_save_then_save_is_bitwise_identical(self, tmp_path):
        recs = self._records()
        p1 = str(tmp_path / "a.jsonl")
        p2 = str(tmp_path / "b.jsonl")
        dp.save_dataset(recs, p1)
        dp.save_dataset(dp.load_dataset(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_invalid_json_line_number(self, tmp_path):
        recs = self._records()
        path = str(tmp_path / "bad.jsonl")
        dp.save_dataset(recs, path)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(DataError, match="line 4"):
            dp.load_dataset(path)

    def test_bad_schema_rejected(self, tmp_path):
        path = str(tmp_path / "schema.jsonl")
        dp.save_dataset(self._records()[:1], path)
        obj = json.loads(open(path).readline())
        obj["schema"] = 99
        open(path, "w").write(json.dumps(obj) + "\n")
        with pytest.raises(DataError, match="schema"):
            dp.load_dataset(path)

    def test_malformed_record_names_line(self, tmp_path):
        path = str(tmp_path / "mal.jsonl")
        dp.save_dataset(self._records()[:2], path)
        lines = open(path).readlines()
        obj = json.loads(lines[1])
        del obj["picks"]
        lines[1] = json.dumps(obj) + "\n"
        open(path, "w").writelines(lines)
        with pytest.raises(DataError, match="line 2"):
            dp.load_dataset(path)

    def test_validate_rejects_bad_picks(self):
        rec = self._records()[0]
        rec.picks = rec.picks[::-1].copy()
        with pytest.raises(DataError, match="increasing"):
            rec.validate()

    def test_validate_rejects_bad_annotation_length(self):
        rec = self._records()[0]
        rec.annotations[0] = rec.annotations[0][:-1]
        with pytest.raises(DataError, match="annotation 0"):
            rec.validate()


class TestSynthetic:
    def test_deterministic(self):
        a = dp.gen_synthetic(n_videos=4, n_frames=30, d_f=8, seed=5)
        b = dp.gen_synthetic(n_videos=4, n_frames=30, d_f=8, seed=5)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.features, rb.features)
            np.testing.assert_array_equal(ra.planted_scores, rb.planted_scores)
            assert ra.text.to_json() == rb.text.to_json()

    def test_seed_changes_output(self):
        a = dp.gen_synthetic(n_videos=1, n_frames=30, d_f=8, seed=5)
        b = dp.gen_synthetic(n_videos=1, n_frames=30, d_f=8, seed=6)
        assert not np.array_equal(a[0].features, b[0].features)

    def test_planted_scores_contract(self):
        for rec in dp.gen_synthetic(n_videos=10, n_frames=48, d_f=8, seed=3):
            s = rec.planted_scores
            assert s.shape == (48,)
            assert np.all((s >= 0.0) & (s <= 1.0))
            assert s.max() > 0.6  # a clearly important stretch exists
            assert s.min() < 0.4  # and a clearly skippable one

    def test_annotations_near_planted(self):
        for rec in dp.gen_synthetic(n_videos=5, n_frames=40, d_f=8, seed=9):
            for ann in rec.annotations:
                assert np.abs(ann - rec.planted_scores).mean() < 0.1

    def test_picks_simulate_30fps_source(self):
        rec = dp.gen_synthetic(n_videos=1, n_frames=20, d_f=4, seed=2)[0]
        np.testing.assert_array_equal(rec.picks, np.arange(20) * 15)
        assert rec.n_frames_original == 300

    def test_small_vocab_rejected(self):
        with pytest.raises(ConfigError):
            dp.gen_synthetic(n_videos=1, n_frames=10, d_f=4, vocab_size=10)

    @pytest.mark.parametrize("kwargs,name", [
        ({"d_f": 0}, "d_f"),
        ({"d_f": -3}, "d_f"),
        ({"code_bits": -1}, "code_bits"),
        ({"code_scale": float("nan")}, "code_scale"),
        ({"code_scale": float("inf")}, "code_scale"),
    ])
    def test_bad_argument_named(self, kwargs, name):
        args = {"n_videos": 1, "n_frames": 10, "d_f": 4, **kwargs}
        with pytest.raises(ConfigError, match=name):
            dp.gen_synthetic(**args)

    def test_zero_code_bits_accepted(self):
        (rec,) = dp.gen_synthetic(n_videos=1, n_frames=10, d_f=4, code_bits=0)
        assert rec.features.shape == (10, 4)

    def test_features_predict_importance_linearly(self):
        # sanity for the planted structure: a least-squares probe from frame
        # features to planted scores should beat predicting the mean
        recs = dp.gen_synthetic(n_videos=30, n_frames=40, d_f=16, seed=21)
        X = np.concatenate([r.features for r in recs])
        y = np.concatenate([r.planted_scores for r in recs])
        half = X.shape[0] // 2
        Xa = np.concatenate([X[:half], np.ones((half, 1))], axis=1)
        w, *_ = np.linalg.lstsq(Xa, y[:half], rcond=None)
        Xb = np.concatenate([X[half:], np.ones((X.shape[0] - half, 1))], axis=1)
        pred = Xb @ w
        mse = ((pred - y[half:]) ** 2).mean()
        base = ((y[half:] - y[:half].mean()) ** 2).mean()
        assert mse < 0.3 * base

    def test_text_reflects_topics(self):
        recs = dp.gen_synthetic(n_videos=8, n_frames=32, d_f=8, seed=13, title_words=5)
        for rec in recs:
            assert rec.text.category and rec.text.category[0].startswith("cat")
            assert all(w.startswith("topic") for w in rec.text.title)
            assert len(rec.text.title) == 5

    def test_description_opens_with_code_tags(self):
        recs = dp.gen_synthetic(n_videos=8, n_frames=32, d_f=8, seed=13, code_bits=3)
        for rec in recs:
            tags = rec.text.description[:3]
            assert all(t.startswith("tag") and t[-1] in "pn" for t in tags)

    def test_code_patterns_shift_all_frames(self):
        # two generations differing only in code_scale isolate the planted code:
        # the per-video offset has +-scale entries and is constant across frames
        base = dp.gen_synthetic(n_videos=3, n_frames=16, d_f=8, seed=4, code_scale=0.0)
        coded = dp.gen_synthetic(n_videos=3, n_frames=16, d_f=8, seed=4, code_scale=2.0)
        for b, c in zip(base, coded):
            delta = c.features - b.features
            np.testing.assert_allclose(delta, np.tile(delta[0], (16, 1)), atol=1e-12)
            # entries are scale times an even integer (sums of six +-1 bits)
            quotient = delta[0] / 4.0
            np.testing.assert_allclose(quotient, np.round(quotient), atol=1e-9)
