"""The textbook forms of the map and network kernels, kept as the references
of the equality gates in ``test_gridmap``, ``test_planners``,
``test_evaluation`` and ``test_nn``.

The package computes the same IEEE operations per value in fewer passes; the
gates require its outputs to equal these bit for bit. ``batch_advantages`` is
the per-row advantage loop, the reference of the stacked advantages in
``test_training``, and ``generate_terrain`` the full-map bisection, the
reference of the terrain generator in ``test_environment``.
"""

import math

import numpy as np

from terrascout.errors import ConfigurationError, ContractViolation, DomainError
from terrascout.gridmap import PROB_FLOOR, GroundTruthMap, map_entropy
from terrascout.nn import DimensionError, Tensor, _make, as_tensor


def weighted_cell_entropy(p, w):
    """Class-weighted binary entropy with scalar weights picked by ``np.where``."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.size and not (0.0 <= arr.min() and arr.max() <= 1.0):  # NaN fails both
        raise DomainError("cell probability outside [0, 1]")
    w_pos = np.where(arr > 0.5, w.w1, np.where(arr < 0.5, w.w2, 0.5))
    w_neg = np.where(arr > 0.5, w.w2, np.where(arr < 0.5, w.w1, 0.5))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_pos = np.where(arr > 0.0, arr * np.log2(np.where(arr > 0.0, arr, 1.0)), 0.0)
        q = 1.0 - arr
        t_neg = np.where(q > 0.0, q * np.log2(np.where(q > 0.0, q, 1.0)), 0.0)
    out = -(w_pos * t_pos + w_neg * t_neg)
    if np.ndim(p) == 0:
        return float(out)
    return out


def probs(log_odds):
    """Clamped posterior, one temporary per operation."""
    p = 1.0 / (1.0 + np.exp(-log_odds))
    return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


def fusion_patch(values, delta):
    return np.where(values == 1, delta, -delta)


def expected_entropy_reduction(probs, accuracy, weights):
    """One candidate footprint's expected weighted-entropy drop."""
    p = np.asarray(probs, dtype=np.float64)
    q1 = p * accuracy + (1.0 - p) * (1.0 - accuracy)
    post1 = p * accuracy / q1
    post0 = p * (1.0 - accuracy) / (1.0 - q1)
    expected = q1 * weighted_cell_entropy(post1, weights) + (1.0 - q1) * weighted_cell_entropy(
        post0, weights
    )
    return float((weighted_cell_entropy(p, weights) - expected).sum())


def roi_entropy(grid, gt, w, *, cell_entropy=None):
    """Normalized ROI entropy through a boolean gather of the ROI cells."""
    roi = gt.cells == 1
    count = int(roi.sum())
    h = map_entropy(grid, w, roi) if cell_entropy is None else float(cell_entropy[roi].sum())
    h0 = weighted_cell_entropy(0.5, w) * count
    return h / h0


def f1_score(grid, gt, *, probs=None):
    """F1 of 'p > 0.5' predictions, every count a separate boolean pass."""
    pred = (grid.probs() if probs is None else probs) > 0.5
    truth = gt.cells == 1
    tp = int((pred & truth).sum())
    fp = int((pred & ~truth).sum())
    fn = int((~pred & truth).sum())
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def conv2d(x, weight, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """im2col through ``np.pad`` and one strided copy per kernel tap."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    bsz, cin, h, w = x.data.shape
    cout, cin_w, kh, kw = weight.data.shape
    if cin != cin_w:
        raise DimensionError(f"conv2d channels mismatch: input {cin} vs kernel {cin_w}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError("conv2d kernel larger than the padded input")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((bsz, cin, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    cols2 = cols.reshape(bsz, cin * kh * kw, oh * ow)
    w2 = weight.data.reshape(cout, cin * kh * kw)
    out = np.matmul(w2, cols2).reshape(bsz, cout, oh, ow) + bias.data.reshape(1, cout, 1, 1)

    def backward(g, grads):
        g2 = g.reshape(bsz, cout, oh * ow)
        grads.add(bias, g.sum(axis=(0, 2, 3)))
        gw = np.einsum("bop,bkp->ok", g2, cols2)
        grads.add(weight, gw.reshape(weight.data.shape))
        if x._needs_grad:
            gcols = np.matmul(w2.T, g2).reshape(bsz, cin, kh, kw, oh, ow)
            gxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += gcols[
                        :, :, i, j
                    ]
            if padding:
                gx = gxp[:, :, padding:-padding, padding:-padding]
            else:
                gx = gxp
            grads.add(x, gx)

    return _make(out, (x, weight, bias), backward)


def counterfactual_advantage(q_row, pi, action):
    """Q of the taken action minus the policy-marginalised Q baseline."""
    q_row = np.asarray(q_row, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)
    if not np.isfinite(q_row).all():
        raise ContractViolation("non-finite Q values")
    if abs(float(pi.sum()) - 1.0) > 1e-6 or (pi < 0).any():
        raise ContractViolation("policy vector is not a distribution")
    return float(q_row[action] - pi @ q_row)


def advantage_variant(variant, q_row, pi, action, v_value=None):
    """Per-variant advantage; central-qv needs the V-critic's value."""
    if variant in ("coma", "actor-independent", "decentralised"):
        return counterfactual_advantage(q_row, pi, action)
    if variant == "central-qv":
        if v_value is None:
            raise ConfigurationError("central-qv advantage needs a state value")
        return float(np.asarray(q_row)[action] - v_value)
    raise ConfigurationError(f"unknown training variant '{variant}'")


def batch_advantages(variant, q_rows, probs, actions, v_values=None):
    """One ``advantage_variant`` call per row."""
    out = np.empty(len(actions))
    for i, action in enumerate(actions):
        v = float(v_values[i]) if v_values is not None else None
        out[i] = advantage_variant(variant, q_rows[i], probs[i], int(action), v)
    return out


def generate_terrain(rng, cfg, *, angle=None, fraction=None):
    """Half-plane terrain whose offset bisection counts the whole map at every step."""
    n = cfg.map_cells
    res = cfg.map_resolution
    centers = (np.arange(n) + 0.5) * res
    xs, ys = np.meshgrid(centers, centers)

    for _ in range(16):
        theta = rng.uniform(0.0, 2.0 * math.pi) if angle is None else angle
        target = rng.uniform(0.3, 0.6) if fraction is None else fraction
        target = min(max(target, 0.3), 0.6)
        proj = math.cos(theta) * xs + math.sin(theta) * ys
        lo, hi = proj.min() - 1.0, proj.max() + 1.0
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if np.count_nonzero(proj >= mid) / proj.size > target:
                lo = mid
            else:
                hi = mid
        cells = proj >= hi
        frac = cells.mean()
        if 0.3 <= frac <= 0.6:
            return GroundTruthMap(cells.astype(np.uint8), res)
        if angle is not None and fraction is not None:
            break
    return GroundTruthMap(cells.astype(np.uint8), res)
