"""Reference answers for the two per-sample decisions, written apart from the program.

Each decision has two forms. The exact form is brute force on plain Python
floats: `math.dist` for every distance, a full stable sort, an explicit
loop over the cluster's members. The fast form computes the same answer
with `numpy.linalg.norm` and a partial sort, cheaply enough to check every
call. Both return None when a near-tie makes the answer depend on the last
bits of rounding; such checks count as ambiguous, not as mismatches.
"""

from __future__ import annotations

import math

import numpy as np

NEAR = 1e-9  # relative gap below which two distances or margins count as tied


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= NEAR * (1.0 + abs(a) + abs(b))


def wknn_label(points, labels, x, k: int, weighting: str, exact: bool = True) -> int | None:
    """Dudani-weighted k-NN label.

    Distance ties keep insertion order; a weighted-vote tie goes to the
    label of the nearest neighbour carrying one of the tied labels.
    """
    if exact:
        xs = [float(v) for v in x]
        dist = [math.dist(row, xs) for row in points.tolist()]
        head = sorted(range(len(dist)), key=dist.__getitem__)[: k + 1]
    else:
        dist = np.linalg.norm(points - x, axis=1)
        part = np.argpartition(dist, min(k, len(dist) - 1))[: k + 1].tolist()
        head = sorted(part, key=lambda i: (dist[i], i))
    if any(_close(dist[a], dist[b]) for a, b in zip(head, head[1:])):
        return None
    nearest = head[:k]
    d1, dk = dist[nearest[0]], dist[nearest[-1]]
    scores: dict[int, float] = {}
    for i in nearest:
        w = 1.0 if weighting == "uniform" or dk == d1 else (dk - dist[i]) / (dk - d1)
        scores[int(labels[i])] = scores.get(int(labels[i]), 0.0) + w
    top = max(scores.values())
    if any(s != top and _close(s, top) for s in scores.values()):
        return None
    tied = {lab for lab, s in scores.items() if s == top}
    return next(int(labels[i]) for i in nearest if int(labels[i]) in tied)


def witness_accepts(members, centroid, x, tau: float, exact: bool = True) -> bool | None:
    """True when some member y has d(y, c) + tau >= max(d(y, x), d(x, c))."""
    if exact:
        c = [float(v) for v in centroid]
        xs = [float(v) for v in x]
        d_xc = math.dist(xs, c)
        margin = -math.inf
        for y in members.tolist():
            margin = max(margin, math.dist(y, c) + tau - max(math.dist(y, xs), d_xc))
    else:
        d_xc = float(np.linalg.norm(x - centroid))
        d_yc = np.linalg.norm(members - centroid, axis=1)
        d_yx = np.linalg.norm(members - x, axis=1)
        margin = float(np.max(d_yc + tau - np.maximum(d_yx, d_xc)))
    if _close(margin, 0.0):
        return None
    return margin >= 0.0
