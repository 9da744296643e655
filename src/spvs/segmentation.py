"""Kernel temporal segmentation and budgeted shot selection.

Shots come from exact change-point DP on the dot-product Gram matrix of
L2-normalized features; summaries pick shots by exact 0/1 knapsack under a
15%-of-frames budget.  Everything here is a pure function over numpy arrays.

The DP is the textbook O(m T^2) recursion, evaluated in blocks: for each
number of change points it takes the end frames 64 at a time, adds the
previous row of the table to that block's rows of the [end, start] cost
matrix and takes the first minimum along each row.  Each candidate sum and
the first-minimum tie-break are those of the plain per-end recursion, which
the tests keep as the reference, so the change points are bitwise the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError

DEFAULT_BUDGET_FRACTION = 0.15
DEFAULT_PENALTY = 1.0
# End frames per DP block.  At T=1024, 32 and 128 rows were 6% and 5%
# slower than 64, and 16 or 256 rows about 20% slower.
_BLOCK_ROWS = 64


@dataclass
class ShotSegmentation:
    """Change points at strictly increasing indices in (0, T)."""

    change_points: list
    n_frames: int

    def __post_init__(self):
        cps = list(self.change_points)
        if any(c <= 0 or c >= self.n_frames for c in cps):
            raise ContractError("change points must lie strictly inside (0, T)")
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ContractError("change points must be strictly increasing")
        self.change_points = cps

    @property
    def shots(self):
        """Half-open [start, end) intervals partitioning [0, T)."""
        bounds = [0] + self.change_points + [self.n_frames]
        return list(zip(bounds[:-1], bounds[1:]))

    @property
    def shot_lengths(self):
        return [b - a for a, b in self.shots]


@dataclass
class Summary:
    selected: list  # bool per shot
    frame_mask: np.ndarray  # bool per frame, union of selected shots
    budget_frames: int


def _segment_costs(K):
    """cost[e, s] = within-segment scatter of frames s..e (inclusive), +inf for s > e.

    Rows are end frames, so the candidates for one end lie along a contiguous
    row, and +inf keeps a start after the end from ever being a row minimum.
    The values are 2-D prefix sums over K, built in place: besides K and the
    result, at most one (T, T) array is live.
    """
    n = K.shape[0]
    diag_cum = np.concatenate([[0.0], np.cumsum(np.diag(K))])
    block = np.zeros((n + 1, n + 1))
    np.cumsum(K, axis=0, out=block[1:, 1:])
    np.cumsum(block[1:, 1:], axis=1, out=block[1:, 1:])
    corner = np.diag(block)  # corner[k] = block[k, k]
    # sum of K over the square [s..e] x [s..e]
    cost = np.empty((n, n))
    cost[:] = corner[1:, None]
    cost -= block[:n, 1:].T
    cost -= block[1:, :n]
    cost += corner[:n]
    del block, corner
    tmp = np.arange(1.0, n + 1.0)[:, None] - np.arange(float(n))  # segment length e - s + 1
    np.maximum(tmp, 1.0, out=tmp)
    cost /= tmp
    np.subtract(diag_cum[1:, None], diag_cum[:n], out=tmp)
    np.subtract(tmp, cost, out=cost)
    cost[np.arange(n)[:, None] < np.arange(n)] = np.inf
    return cost


def kts_segment(features, max_segments=None, penalty=DEFAULT_PENALTY):
    """Exact DP change-point detection on the normalized dot-product kernel.

    Minimizes total within-segment scatter plus penalty * m * (log(T/m) + 1)
    over the number of change points m in 0..max_segments.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ContractError(f"kts_segment expects a nonempty (T, d) array, got {X.shape}")
    T = X.shape[0]
    if max_segments is None:
        max_segments = min(math.ceil(T / 10), T - 1)
    if not 0 <= max_segments < T:
        raise ConfigError(f"max_segments ({max_segments}) must be in [0, T) with T = {T}")

    norms = np.sqrt((X**2).sum(axis=1, keepdims=True))
    Xn = X / np.maximum(norms, 1e-12)
    cost = _segment_costs(Xn @ Xn.T)

    # best[m][t] = min scatter of frames [0, t) split into m+1 segments
    best = np.full((max_segments + 1, T + 1), np.inf)
    back = np.zeros((max_segments + 1, T + 1), dtype=np.int64)
    best[0, 1:] = cost[:, 0]
    buf = np.empty(_BLOCK_ROWS * T)
    rows = np.arange(_BLOCK_ROWS)
    for m in range(1, max_segments + 1):
        # the last segment of frames [0, e] starts at s in [m, e], so every
        # earlier segment is nonempty; cost[e, s] = inf masks s > e
        for e0 in range(m, T, _BLOCK_ROWS):
            e1 = min(e0 + _BLOCK_ROWS, T)
            cand = buf[: (e1 - e0) * (e1 - m)].reshape(e1 - e0, e1 - m)
            np.add(cost[e0:e1, m:e1], best[m - 1, m:e1], out=cand)
            s = cand.argmin(axis=1)
            best[m, e0 + 1 : e1 + 1] = cand[rows[: e1 - e0], s]
            back[m, e0 + 1 : e1 + 1] = s + m

    def objective(m):
        if m == 0:
            return best[0, T]
        return best[m, T] + penalty * m * (math.log(T / m) + 1.0)

    m_star = min(range(max_segments + 1), key=objective)
    cps = []
    t = T
    for m in range(m_star, 0, -1):
        t = int(back[m, t])
        cps.append(t)
    cps.reverse()
    return ShotSegmentation(change_points=cps, n_frames=T)


def shot_scores(s_star, seg):
    """Mean predicted score of the frames within each shot."""
    s = np.asarray(s_star, dtype=np.float64)
    if s.shape != (seg.n_frames,):
        raise ContractError(
            f"score length {s.shape} does not match segmentation over {seg.n_frames} frames"
        )
    return np.array([s[a:b].mean() for a, b in seg.shots])


def knapsack_select(scores, lengths, budget_frames):
    """Exact 0/1 knapsack over shots.

    Maximizes the summed score of the selected shots under the frame
    budget; summarize passes each shot's mean frame score, so shot length
    does not weight the value.  Ties break toward fewer selected frames,
    then the lexicographically smallest shot-index set.
    """
    scores = [float(v) for v in scores]
    lengths = [int(l) for l in lengths]
    if len(scores) != len(lengths):
        raise ContractError("scores and lengths differ in size")
    if any(l <= 0 for l in lengths):
        raise ContractError("shot lengths must be positive")

    budget = int(budget_frames)
    # table[c] = (value, frames_used, index tuple); best under capacity c
    empty = (0.0, 0, ())
    table = [empty] * (budget + 1)
    for i, (val, wt) in enumerate(zip(scores, lengths)):
        if wt > budget:
            continue
        for c in range(budget, wt - 1, -1):
            pv, pf, pset = table[c - wt]
            cand = (pv + val, pf + wt, pset + (i,))
            cur = table[c]
            if (cand[0], -cand[1], tuple(-x for x in cand[2])) > (
                cur[0],
                -cur[1],
                tuple(-x for x in cur[2]),
            ):
                table[c] = cand
    best = max(table, key=lambda e: (e[0], -e[1], tuple(-x for x in e[2])))
    chosen = set(best[2])
    return [i in chosen for i in range(len(scores))]


def summarize(s_star, seg, budget_fraction=DEFAULT_BUDGET_FRACTION):
    """Select shots under floor(budget_fraction * T) frames."""
    budget = int(math.floor(budget_fraction * seg.n_frames))
    sel = knapsack_select(shot_scores(s_star, seg), seg.shot_lengths, budget)
    mask = np.zeros(seg.n_frames, dtype=bool)
    for keep, (a, b) in zip(sel, seg.shots):
        if keep:
            mask[a:b] = True
    return Summary(selected=sel, frame_mask=mask, budget_frames=budget)


def check_budget_fraction(budget_fraction):
    """Reject a summary length fraction outside (0, 1]."""
    if not 0.0 < budget_fraction <= 1.0:
        raise ConfigError(f"budget fraction must be in (0, 1], got {budget_fraction}")


def summarize_video(features, scores, budget_fraction, annotations=()):
    """KTS shots of one video, the summary of its scores, and one summary per
    annotation, all over the same shots and budget.

    Returns (segmentation, summary, reference summaries).
    """
    check_budget_fraction(budget_fraction)
    seg = kts_segment(features)
    summary = summarize(scores, seg, budget_fraction)
    return seg, summary, [summarize(np.asarray(a), seg, budget_fraction) for a in annotations]


def expand_to_original(frame_mask, picks, n_original_frames):
    """Expand a subsampled-frame mask back to original-frame resolution.

    Subsampled frame i covers original frames [picks[i], picks[i+1]); the
    last pick covers through n_original_frames.
    """
    mask = np.asarray(frame_mask, dtype=bool)
    picks = np.asarray(picks, dtype=np.int64)
    if picks.shape != mask.shape:
        raise DataError("picks and frame_mask differ in length")
    if picks.size and (np.any(np.diff(picks) <= 0) or picks[0] < 0 or picks[-1] >= n_original_frames):
        raise DataError("picks must be strictly increasing within [0, n_original_frames)")
    out = np.zeros(n_original_frames, dtype=bool)
    bounds = np.concatenate([picks, [n_original_frames]])
    for i in range(picks.size):
        out[bounds[i] : bounds[i + 1]] = mask[i]
    return out
