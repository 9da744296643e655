import math
from itertools import combinations, product

import numpy as np
import pytest

from spvs import segmentation as seg
from spvs.errors import ConfigError, ContractError, DataError


def brute_force_kts(X, max_segments, penalty):
    """Exhaustive search over every change-point placement up to max_segments."""
    X = np.asarray(X, dtype=np.float64)
    T = X.shape[0]
    norms = np.sqrt((X**2).sum(axis=1, keepdims=True))
    Xn = X / np.maximum(norms, 1e-12)
    K = Xn @ Xn.T

    def scatter(a, b):
        # sum_i K_ii - (1/len) sum_ij K_ij over frames a..b-1
        block = K[a:b, a:b]
        return float(np.trace(block) - block.sum() / (b - a))

    best = (math.inf, ())
    for m in range(0, max_segments + 1):
        for cps in combinations(range(1, T), m):
            bounds = [0] + list(cps) + [T]
            total = sum(scatter(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1))
            if m > 0:
                total += penalty * m * (math.log(T / m) + 1.0)
            if total < best[0] - 1e-12:
                best = (total, cps)
    return best


def brute_force_knapsack(values, lengths, budget):
    """All 2^k subsets, with the same tie-break rules."""
    k = len(values)
    best = None
    for bits in product([False, True], repeat=k):
        frames = sum(l for b, l in zip(bits, lengths) if b)
        if frames > budget:
            continue
        value = sum(v for b, v in zip(bits, values) if b)
        idxs = tuple(i for i, b in enumerate(bits) if b)
        key = (value, -frames, tuple(-x for x in idxs))
        if best is None or key > best[0]:
            best = (key, list(bits))
    return best[1]


class TestShotSegmentation:
    def test_shots_partition(self):
        s = seg.ShotSegmentation(change_points=[3, 7], n_frames=10)
        assert s.shots == [(0, 3), (3, 7), (7, 10)]
        assert s.shot_lengths == [3, 4, 3]

    def test_no_change_points_single_shot(self):
        s = seg.ShotSegmentation(change_points=[], n_frames=5)
        assert s.shots == [(0, 5)]

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            seg.ShotSegmentation(change_points=[0], n_frames=5)
        with pytest.raises(ContractError):
            seg.ShotSegmentation(change_points=[5], n_frames=5)

    def test_non_increasing_rejected(self):
        with pytest.raises(ContractError):
            seg.ShotSegmentation(change_points=[4, 4], n_frames=10)


class TestKts:
    def test_constant_features_one_shot(self):
        out = seg.kts_segment(np.ones((30, 4)))
        assert out.change_points == []

    def test_two_clean_blocks(self):
        X = np.zeros((20, 3))
        X[:12, 0] = 1.0
        X[12:, 1] = 1.0
        out = seg.kts_segment(X, max_segments=3)
        assert out.change_points == [12]

    def test_matches_exhaustive_search(self, rng):
        for _ in range(12):
            T = 6 + rng.randint(10)  # up to 15 frames
            d = 3
            X = rng.normals((T, d))
            # plant a shift so segmentation is nontrivial sometimes
            cut = 2 + rng.randint(T - 4)
            X[cut:] += 2.0
            max_m = min(4, T - 1)
            _, expect_cps = brute_force_kts(X, max_m, 1.0)
            out = seg.kts_segment(X, max_segments=max_m, penalty=1.0)
            assert tuple(out.change_points) == expect_cps

    def test_penalty_suppresses_splits(self, rng):
        X = rng.normals((24, 4))
        out = seg.kts_segment(X, max_segments=5, penalty=1e6)
        assert out.change_points == []

    def test_max_segments_too_large(self, rng):
        with pytest.raises(ConfigError):
            seg.kts_segment(rng.normals((5, 2)), max_segments=5)

    def test_default_cap(self, rng):
        out = seg.kts_segment(rng.normals((47, 3)))
        assert len(out.change_points) <= math.ceil(47 / 10)


class TestShotScores:
    def test_matches_loop(self, rng):
        s = rng.uniforms((10,), 0.0, 1.0)
        sg = seg.ShotSegmentation(change_points=[4, 7], n_frames=10)
        out = seg.shot_scores(s, sg)
        np.testing.assert_allclose(out, [s[:4].mean(), s[4:7].mean(), s[7:].mean()], atol=1e-15)

    def test_length_mismatch(self, rng):
        sg = seg.ShotSegmentation(change_points=[2], n_frames=6)
        with pytest.raises(ContractError):
            seg.shot_scores(rng.uniforms((5,), 0.0, 1.0), sg)


class TestKnapsack:
    def test_everything_fits(self):
        assert seg.knapsack_select([0.5, 0.9], [2, 3], 10) == [True, True]

    def test_nothing_fits(self):
        assert seg.knapsack_select([0.5, 0.9], [4, 5], 3) == [False, False]

    def test_prefers_value_over_count(self):
        # one high-value long shot beats two mediocre short ones
        assert seg.knapsack_select([0.9, 0.3, 0.3], [5, 3, 2], 5) == [True, False, False]

    def test_tie_breaks_toward_fewer_frames(self):
        # both options give value 0.8; the 2-frame shot wins over the 4-frame one
        assert seg.knapsack_select([0.8, 0.8], [4, 2], 4) == [False, True]

    def test_tie_breaks_lexicographically(self):
        # identical value and length; the lower index wins
        assert seg.knapsack_select([0.8, 0.8], [3, 3], 3) == [True, False]

    def test_matches_brute_force(self, rng):
        for _ in range(40):
            k = 2 + rng.randint(9)  # up to 10 shots
            values = [round(rng.uniform(), 2) for _ in range(k)]  # rounding creates ties
            lengths = [1 + rng.randint(6) for _ in range(k)]
            budget = 1 + rng.randint(sum(lengths))
            got = seg.knapsack_select(values, lengths, budget)
            expect = brute_force_knapsack(values, lengths, budget)
            assert got == expect, (values, lengths, budget)

    def test_at_least_as_good_as_greedy(self, rng):
        for _ in range(20):
            k = 3 + rng.randint(10)
            values = [rng.uniform() for _ in range(k)]
            lengths = [1 + rng.randint(5) for _ in range(k)]
            budget = 1 + rng.randint(sum(lengths))
            sel = seg.knapsack_select(values, lengths, budget)
            got = sum(v for s, v in zip(sel, values) if s)
            greedy_val = 0.0
            used = 0
            for i in sorted(range(k), key=lambda i: -values[i] / lengths[i]):
                if used + lengths[i] <= budget:
                    used += lengths[i]
                    greedy_val += values[i]
            assert got >= greedy_val - 1e-12

    def test_values_are_shot_means(self):
        # the short high-mean shot wins over the longer shot whose total
        # score mass (0.6 * 4) is larger
        assert seg.knapsack_select([0.9, 0.6], [1, 4], 4) == [True, False]

    def test_bad_length(self):
        with pytest.raises(ContractError):
            seg.knapsack_select([0.5], [0], 1)


class TestSummarize:
    def test_budget_is_floor_of_fraction(self, rng):
        sg = seg.ShotSegmentation(change_points=[10, 20], n_frames=30)
        out = seg.summarize(rng.uniforms((30,), 0.0, 1.0), sg)
        assert out.budget_frames == math.floor(0.15 * 30)
        assert int(out.frame_mask.sum()) <= out.budget_frames

    def test_mask_is_union_of_selected_shots(self, rng):
        sg = seg.ShotSegmentation(change_points=[3, 6], n_frames=12)
        out = seg.summarize(rng.uniforms((12,), 0.0, 1.0), sg, budget_fraction=0.5)
        for keep, (a, b) in zip(out.selected, sg.shots):
            assert np.all(out.frame_mask[a:b] == keep)

    def test_never_exceeds_budget_randomized(self, rng):
        for _ in range(100):
            T = 10 + rng.randint(100)
            n_cp = rng.randint(min(8, T - 1))
            cps = sorted(rng.shuffle(list(range(1, T)))[:n_cp])
            sg = seg.ShotSegmentation(change_points=cps, n_frames=T)
            out = seg.summarize(rng.uniforms((T,), 0.0, 1.0), sg)
            assert int(out.frame_mask.sum()) <= math.floor(0.15 * T)


class TestSummarizeVideo:
    def test_matches_segment_then_summarize(self, rng):
        X = np.repeat(rng.normals((3, 6)), [10, 12, 8], axis=0) + 0.01 * rng.normals((30, 6))
        s = rng.uniforms((30,), 0.0, 1.0)
        annotations = [rng.uniforms((30,), 0.0, 1.0).tolist() for _ in range(2)]
        sg, summary, refs = seg.summarize_video(X, s, 0.3, annotations)
        assert sg == seg.kts_segment(X)
        expect = seg.summarize(s, sg, 0.3)
        assert summary.selected == expect.selected
        assert summary.budget_frames == expect.budget_frames == 9
        np.testing.assert_array_equal(summary.frame_mask, expect.frame_mask)
        assert len(refs) == 2
        for a, ref in zip(annotations, refs):
            np.testing.assert_array_equal(
                ref.frame_mask, seg.summarize(np.asarray(a), sg, 0.3).frame_mask
            )

    def test_no_annotations(self, rng):
        _, _, refs = seg.summarize_video(rng.normals((12, 4)), rng.uniforms((12,), 0.0, 1.0), 0.15)
        assert refs == []

    @pytest.mark.parametrize("fraction", [0.0, -1.0, 1.5, 5.0, float("nan")])
    def test_budget_outside_unit_interval(self, rng, fraction):
        with pytest.raises(ConfigError):
            seg.summarize_video(rng.normals((12, 4)), rng.uniforms((12,), 0.0, 1.0), fraction)

    def test_full_budget_allowed(self, rng):
        X, s = rng.normals((12, 4)), rng.uniforms((12,), 0.0, 1.0)
        _, summary, _ = seg.summarize_video(X, s, 1.0)
        assert summary.budget_frames == 12 and summary.frame_mask.all()


class TestExpandToOriginal:
    def test_interval_fill(self):
        mask = np.array([True, False, True])
        picks = np.array([0, 4, 8])
        out = seg.expand_to_original(mask, picks, 12)
        expect = np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1], dtype=bool)
        np.testing.assert_array_equal(out, expect)

    def test_first_pick_offset(self):
        out = seg.expand_to_original([True], [2], 5)
        np.testing.assert_array_equal(out, [False, False, True, True, True])

    def test_invalid_picks(self):
        with pytest.raises(DataError):
            seg.expand_to_original([True, True], [3, 3], 8)
        with pytest.raises(DataError):
            seg.expand_to_original([True], [9], 8)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            seg.expand_to_original([True, False], [0], 4)
