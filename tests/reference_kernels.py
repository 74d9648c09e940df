"""The textbook forms of the map and network kernels, kept as the references
of the equality gates in ``test_gridmap``, ``test_planners``,
``test_evaluation`` and ``test_nn``.

The package computes the same IEEE operations per value in fewer passes; the
gates require its outputs to equal these bit for bit. ``batch_advantages`` is
the per-row advantage loop, the reference of the stacked advantages in
``test_training``, and ``generate_terrain`` the full-map bisection, the
reference of the terrain generator in ``test_environment``; it also keeps the
``angle`` and ``fraction`` overrides, which draw the fixed terrains of
``test_evaluation``.

``banded_weighted_cell_entropy`` and ``simulate_measurement`` are the package's
earlier forms of its entropy kernel (the same operations, run over bands of
8,192 cells) and of its measurement (block sums taken as two Python ``sum``s
over ``fac`` strided slices), kept as the references of the one-pass kernel
and the one-step block sums in ``test_gridmap``.
"""

import math

import numpy as np

from terrascout.errors import ConfigurationError, ContractViolation, DomainError
from terrascout.gridmap import (
    PROB_FLOOR,
    GroundTruthMap,
    Measurement,
    _blocks,
    _footprint_origin,
    _virtual_uniforms,
    footprint,
    map_entropy,
    upsample_factor,
)
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


ENTROPY_BAND = 8192
_T_HALF = 0.5 * math.log2(0.5)
_SUM_AT_HALF = 0.5 * _T_HALF + 0.5 * _T_HALF


def banded_weighted_cell_entropy(p, w):
    """The package's kernel with its operations run over bands of a flat C-order view."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.size == 0:
        return np.empty(arr.shape)
    lo, hi = arr.min(), arr.max()
    if not (0.0 <= lo and hi <= 1.0):  # NaN fails both
        raise DomainError("cell probability outside [0, 1]")
    x = arr.ravel()
    out = np.empty(x.size)
    n = min(x.size, ENTROPY_BAND)
    y_buf, m_buf = np.empty(n), np.empty(n)
    w1, w2 = w.w1, w.w2
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log2(0), fixed below
        for start in range(0, x.size, ENTROPY_BAND):
            xb = x[start:start + ENTROPY_BAND]
            ob = out[start:start + ENTROPY_BAND]
            y, m = y_buf[:xb.size], m_buf[:xb.size]
            np.subtract(1.0, xb, out=y)
            np.minimum(xb, y, out=y)
            np.subtract(1.0, y, out=m)
            np.log2(y, out=ob)
            ob *= y  # y log2 y
            if lo == 0.0 or hi == 1.0:
                ob[y == 0.0] = 0.0
            ob *= w2
            np.log2(m, out=y)
            y *= m  # m log2 m
            y *= w1
            ob += y
            ob[xb == 0.5] = _SUM_AT_HALF
    np.negative(out, out=out)
    if np.ndim(p) == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def simulate_measurement(gt, position, sensor, seed, *, footprint_factor=1.0,
                         agent_id=0, step=0):
    """The package's measurement with its block sums taken as two Python ``sum``s
    over ``fac`` strided slices, rows first."""
    alt = float(position[2])
    acc = sensor.accuracy_at(alt)
    rect = footprint(position, footprint_factor, gt.width, gt.height, gt.resolution)
    fac = upsample_factor(alt, sensor.min_altitude)
    side_cells = max(1, round(footprint_factor * alt / gt.resolution))
    x_lo0, y_lo0 = _footprint_origin(float(position[0]), float(position[1]), side_cells, gt.resolution)
    anchor_y, len_y = _blocks(rect.y_lo, rect.y_hi, y_lo0, fac)
    anchor_x, len_x = _blocks(rect.x_lo, rect.x_hi, x_lo0, fac)

    # block sums over a zero-padded copy whose rows and columns start on block edges
    y0, x0 = fac - len_y[0], fac - len_x[0]
    padded = np.zeros((len(len_y) * fac, len(len_x) * fac), dtype=np.int32)
    padded[y0:y0 + rect.height, x0:x0 + rect.width] = gt.cells[rect.slices]
    rows = sum(padded[k::fac] for k in range(fac))
    sums = sum(rows[:, k::fac] for k in range(fac))
    truth = 2 * sums >= len_y[:, None] * len_x  # majority, ties -> interesting
    flips = _virtual_uniforms(seed, anchor_y, anchor_x, gt.width) >= acc
    observed = (truth ^ flips).view(np.uint8)

    values = np.repeat(np.repeat(observed, len_y, axis=0), len_x, axis=1)
    return Measurement(np.asarray(position, dtype=float), rect, values, acc, agent_id, step)


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
