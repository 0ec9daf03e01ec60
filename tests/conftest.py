"""Shared test fixtures and independent brute-force oracles.

The oracles here deliberately use plain Python loops and restate the
published formulas from scratch; they must not share code with the package
implementations they check.
"""

import math

import numpy as np
import pytest

from fisrul.clustering import TrainingTable


def brute_force_subtractive(matrix, ra, rb, eps_accept, eps_reject):
    """Loop-based subtractive clustering; returns the selected row indices.

    Potentials are sums of exp(-4 d^2 / ra^2) over all rows of the min-max
    normalized matrix; centers are picked greedily with potential
    subtraction, the accept/reject thresholds and the distance-ratio test.
    """
    rows = [list(r) for r in np.asarray(matrix, dtype=float)]
    n = len(rows)
    dims = len(rows[0])
    lows = [min(r[d] for r in rows) for d in range(dims)]
    highs = [max(r[d] for r in rows) for d in range(dims)]
    spans = [h - l if h > l else 1.0 for l, h in zip(lows, highs)]
    normed = [[(r[d] - lows[d]) / spans[d] for d in range(dims)] for r in rows]

    def sq_dist(a, b):
        return sum((x - y) ** 2 for x, y in zip(a, b))

    alpha = 4.0 / ra**2
    beta = 4.0 / rb**2
    potential = [
        sum(math.exp(-alpha * sq_dist(normed[k], normed[m])) for m in range(n))
        for k in range(n)
    ]

    def argmax(values):
        best = 0
        for i in range(1, len(values)):
            if values[i] > values[best]:
                best = i
        return best

    first = argmax(potential)
    p_ref = potential[first]
    accepted = [first]
    potential = [
        p - p_ref * math.exp(-beta * sq_dist(normed[k], normed[first]))
        for k, p in enumerate(potential)
    ]
    while len(accepted) < n:
        cand = argmax(potential)
        p_star = potential[cand]
        if p_star <= 0.0 or cand in accepted:
            break
        ratio = p_star / p_ref
        if ratio > eps_accept:
            pass
        elif ratio < eps_reject:
            break
        else:
            d_min = min(math.sqrt(sq_dist(normed[cand], normed[c])) for c in accepted)
            if d_min / ra + ratio < 1.0:
                potential[cand] = 0.0
                continue
        accepted.append(cand)
        potential = [
            p - p_star * math.exp(-beta * sq_dist(normed[k], normed[cand]))
            for k, p in enumerate(potential)
        ]
    return accepted


def brute_force_apen(x, m, r):
    """Textbook ApEn with explicit template loops (self-matches included)."""
    x = list(map(float, x))
    n = len(x)

    def phi(mm):
        count = n - mm + 1
        total = 0.0
        for i in range(count):
            matches = 0
            for j in range(count):
                if max(abs(x[i + k] - x[j + k]) for k in range(mm)) <= r:
                    matches += 1
            total += math.log(matches / count)
        return total / count

    return phi(m) - phi(m + 1)


def brute_force_theiler_neighbors(points, mean_period):
    """Nearest neighbor of each point more than ``mean_period`` steps away.

    One point at a time: Euclidean distances to every point, then the lowest
    index among the smallest distances outside the Theiler window.
    """
    points = np.asarray(points, dtype=float)
    m = len(points)
    neighbors = []
    for i in range(m):
        dist = np.sqrt(np.sum((points[i] - points) ** 2, axis=1)).tolist()
        best = None
        for j in range(m):
            if abs(i - j) <= mean_period:
                continue
            if best is None or dist[j] < dist[best]:
                best = j
        neighbors.append(best)
    return neighbors


def brute_force_savgol(x, order, frame):
    """Savitzky-Golay smoothing one point at a time with ``np.polyfit``.

    Each point is the value of the degree-``order`` polynomial fitted to its
    own centered frame; the first and last ``frame // 2`` points have no
    centered frame and take the first or last frame's fit, evaluated off
    center.
    """
    x = np.asarray(x, dtype=float)
    n, half = x.size, frame // 2
    offsets = np.arange(-half, half + 1)
    out = np.empty(n)
    for i in range(n):
        start = min(max(i - half, 0), n - frame)
        coeffs = np.polyfit(offsets, x[start:start + frame], order)
        out[i] = np.polyval(coeffs, i - start - half)
    return out


def two_group_table(rng, n_per_group=10, spread=0.02):
    """Two tight groups in the joint (feature, rho) space."""
    a = np.column_stack([
        rng.normal(0.1, spread, n_per_group),
        rng.normal(0.15, spread, n_per_group),
    ])
    b = np.column_stack([
        rng.normal(0.8, spread, n_per_group),
        rng.normal(0.85, spread, n_per_group),
    ])
    rows = np.vstack([a, b])
    features = rows[:, :1]
    rho = np.clip(rows[:, 1], 0.0, 1.0)
    return TrainingTable(features=features, rho=rho,
                         taus=np.arange(1.0, 2 * n_per_group + 1.0))


def random_rule_base(rng, n_rules=None, n_features=None):
    """Random but well-formed rule-base geometry for normalization checks."""
    from fisrul.mixture import TimeClusterParams

    j = int(n_rules if n_rules is not None else rng.integers(1, 6))
    i = int(n_features if n_features is not None else rng.integers(1, 4))
    centers = rng.uniform(-2.0, 2.0, size=(j, i))
    sigmas = rng.uniform(0.2, 1.5, size=i)
    priors = rng.uniform(0.1, 1.0, size=j)
    priors = priors / priors.sum()
    time_params = TimeClusterParams(
        priors=priors,
        centroids=rng.uniform(0.0, 100.0, size=j),
        variances=rng.uniform(1.0, 400.0, size=j),
    )
    return centers, sigmas, time_params


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
