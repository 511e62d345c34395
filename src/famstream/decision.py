"""The known-vs-new routing rule for stream samples.

`route_sample` returns (the known cluster the classifier proposed,
accepted): a sample is accepted there only when some existing member y
witnesses d(y, centroid) + tau >= max(d(y, x), d(x, centroid)), all
distances Euclidean. Positive tau lets clusters expand past their current
hull; negative tau admits only interior points and in particular rejects
everything closer to the centroid than |tau| (no witness can exist there,
by the triangle inequality).

`accepts` takes the members' d(y, centroid) and d(y, x) from two float32
matrix-vector products over the members' float32 mirror (`points.sq_dists`),
whose error bounds tell which members' margins it can decide. Only members
whose margin lies within the two bounds of zero are recomputed exactly, from
the float64 rows, so the answer equals the exact rule's. When even the
farthest member plus tau falls clearly short of d(x, centroid), no member
can witness and the d(y, x) row is never formed.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .batch import KnownClusters
from .data import check_dim
from .points import as_float32, exact_dists, sq_dists
from .wknn import ReferenceSet, WKNNParams, classify


@dataclass(frozen=True)
class DecisionParams:
    """Routing behavior: threshold and state-growth switches.

    update_centroids moves an accepting cluster's centroid by running mean;
    grow_members controls whether accepted samples join the member list the
    rule evaluates later (freeze for ablation); grow_reference appends
    accepted samples to the classifier's reference set.
    """

    tau: float = -2.0
    update_centroids: bool = True
    grow_reference: bool = True
    grow_members: bool = True

    def __post_init__(self):
        if isinstance(self.tau, bool) or not isinstance(self.tau, numbers.Real):
            raise ValueError(f"tau must be a number, got {self.tau!r}")
        if not np.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        for name in ("update_centroids", "grow_reference", "grow_members"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")


def accepts(
    members, centroid, x, tau: float, *, sq_norms=None, max_sq_norm=None, points32=None
) -> bool:
    """True when some member y witnesses that x belongs to this cluster:
    d(y, c) + tau >= max(d(y, x), d(x, c)) with c the centroid, every d(y, .)
    as `points.exact_dists` computes it and the sum rounded once.

    sq_norms, max_sq_norm and points32, when given, must be the members'
    squared norms, their maximum and the members rounded to float32
    (`points.as_float32`); a Cluster, like every PointBuffer, keeps all three.

    Why the bounds decide as the exact rule does. For one `sq_dists` row, with
    n the dimension, u = EPS / 2, R = max|y| + |q| and err its bound, s errs
    by at most e = (n + 2) (EPS + EPS32 / 4) R^2 to first order, and err
    exceeds e by at least (3/4) (n + 10) EPS32 R^2. So a = sqrt(max(s, 0)) is
    within sqrt(e) + O(EPS R) of the exact distance d, which stays below
    sqrt(err) by a room of at least (err - e) / (2 sqrt(err)), about
    (3/8) sqrt((n + 10) EPS32) R or 9e-4 R at n = 40; each rounding below
    costs a few u R and fits in it. Rounding is monotone and
    D = max(d(y, x), d(x, c)) is a float, so the exact rule accepts y when
    d(y, c) + tau >= D in real arithmetic and rejects it when
    d(y, c) + tau < (1 - u) D, or < 0 if D = 0.

    - Far exit: b = fl(max_y a(y, c) + sqrt(err_c)) is at least every
      d(y, c), so fl(d(y, c) + tau) <= fl(b + tau) by monotonicity, and
      fl(b + tau) < d(x, c) <= D rejects every member, whatever tau and |x|.
    - Margins: m = fl(fl(a(y, c) + tau) - A), A = max(a(y, x), d(x, c)),
      slack = sqrt(err_x) + sqrt(err_c). |A - D| <= |a(y, x) - d(y, x)|, so
      before rounding m is within slack minus both rooms of d(y, c) + tau - D.
      Its two roundings add at most u |m| + u |fl(a(y, c) + tau)|
      <= 2u |m| + u A to first order: the rounding of `+ tau` grows with the
      margin, not with |tau|. A <= R_x + R_c + sqrt(err_x), as
      d(y, x) <= |y| + |x| and d(x, c) <= |x| + |c|. So m >= slack gives
      d(y, c) + tau - D >= (rooms) - 2u slack - u A > 0, an exact accept, and
      m < -slack gives d(y, c) + tau - (1 - u) D < 0, an exact reject.

    Members with |m| < slack are rechecked with exact d(y, c) and d(y, x);
    all of them are when either row fell outside the bound's range.
    """
    M = np.asarray(members, dtype=np.float64)
    if M.ndim == 1:
        M = M[None, :]
    if M.shape[0] == 0:
        raise ValueError("accepts needs a non-empty member list")
    centroid = np.asarray(centroid, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    check_dim(M.shape[1], x.shape[-1], "accepts")
    check_dim(M.shape[1], centroid.shape[-1], "accepts")
    if sq_norms is None:
        sq_norms = np.einsum("ij,ij->i", M, M)
    if max_sq_norm is None:
        max_sq_norm = float(sq_norms.max())
    if points32 is None:
        points32 = as_float32(M)
    with np.errstate(over="ignore"):  # an overflowing d(x, c) is inf, which decides
        d_xc = float(np.sqrt(np.sum((x - centroid) ** 2)))
    sq, err_c = sq_dists(points32, sq_norms, max_sq_norm, centroid)
    if sq is not None:
        d_yc = np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)
        slack_c = math.sqrt(err_c)
        if (float(d_yc.max()) + slack_c) + tau < d_xc:
            return False
        sq, err_x = sq_dists(points32, sq_norms, max_sq_norm, x)
    if sq is None:
        rows = M
    else:
        margin = d_yc + tau - np.maximum(np.sqrt(np.maximum(sq, 0.0)), d_xc)
        slack = math.sqrt(err_x) + slack_c
        if margin.max() >= slack:
            return True
        # margins below -slack are negative exactly too
        near = np.flatnonzero(margin >= -slack)
        if near.size == 0:
            return False
        rows = M[near]
    d_yx = exact_dists(rows, x)
    return bool(np.any(exact_dists(rows, centroid) + tau >= np.maximum(d_yx, d_xc)))


def route_sample(
    known: KnownClusters,
    ref: ReferenceSet,
    params: WKNNParams,
    dp: DecisionParams,
    x,
    sample_id: str,
) -> tuple[int, bool]:
    """Route one stream sample: (proposed known cluster id, accepted).

    The classifier proposes a known cluster; the rule then accepts or
    rejects. Acceptance mutates state according to dp (member list,
    centroid, reference set), with sample_id labeling the new member;
    rejection leaves everything untouched and sends the sample to the
    new-family route, whose online-cluster id the caller owns.
    """
    label, _ = classify(ref, params, x)
    cluster = known.clusters[label]
    if accepts(
        cluster.points,
        cluster.centroid,
        x,
        dp.tau,
        sq_norms=cluster.sq_norms,
        max_sq_norm=cluster.max_sq_norm,
        points32=cluster.points32,
    ):
        if dp.grow_members:
            cluster.add_member(x, sample_id, update_centroid=dp.update_centroids)
        if dp.grow_reference:
            ref.add(x, label)
        return label, True
    return label, False


@dataclass(frozen=True)
class TauSweepPoint:
    tau: float
    new_fraction: float


def sweep_tau(
    known: KnownClusters,
    ref: ReferenceSet,
    params: WKNNParams,
    ids: list[str],
    points,
    taus,
    dp: DecisionParams | None = None,
) -> list[TauSweepPoint]:
    """Fraction of the stream routed New, per tau, from a pristine state.

    The stream is given as its sample ids and, row for row, its points in
    model space (the projected stream). Acceptance mutates the known
    clusters and the reference set, so each tau replays the whole stream
    against fresh deep copies; runs never bleed into each other.
    """
    taus = [float(t) for t in taus]
    if not taus:
        raise ValueError("no tau values given")
    base = dp or DecisionParams()
    out: list[TauSweepPoint] = []
    for tau in taus:
        k_copy = copy.deepcopy(known)
        r_copy = copy.deepcopy(ref)
        dpt = replace(base, tau=tau)
        new_count = sum(
            not route_sample(k_copy, r_copy, params, dpt, x, sid)[1]
            for sid, x in zip(ids, points, strict=True)
        )
        fraction = new_count / len(ids) if ids else 0.0
        out.append(TauSweepPoint(tau=tau, new_fraction=fraction))
        del k_copy, r_copy  # free this tau's state before the next copies
    return out
