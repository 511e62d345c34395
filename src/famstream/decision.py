"""The known-vs-new routing rule for stream samples.

A sample stays in the known cluster the classifier picked only when some
existing member y witnesses d(y, centroid) + tau >= max(d(y, x),
d(x, centroid)), all distances Euclidean. Positive tau lets clusters expand
past their current hull; negative tau admits only interior points and in
particular rejects everything closer to the centroid than |tau| (no witness
can exist there, by the triangle inequality).

`accepts` takes every d(y, x) from one matrix-vector product
(`points.sq_dists`), whose error bound tells which members' margins it can
decide. Only members whose margin lies within that bound of zero are
recomputed exactly, so the answer equals the exact rule's. The members'
d(y, centroid) come from the cluster's cache when routing supplies them.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .batch import KnownClusters
from .data import Dataset, Route, RouteAssignment, check_dim
from .points import exact_dists, sq_dists
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
        if not np.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")


def accepts(members, centroid, x, tau: float, *, sq_norms=None, centroid_dists=None) -> bool:
    """True when some member witnesses that x belongs to this cluster.

    sq_norms and centroid_dists, when given, must be the members' squared
    norms and `points.exact_dists(members, centroid)`; a Cluster keeps both.
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
    if centroid_dists is None:
        centroid_dists = exact_dists(M, centroid)
    d_xc = float(np.sqrt(np.sum((x - centroid) ** 2)))
    reach = centroid_dists + tau
    sq, err = sq_dists(M, sq_norms, x)
    # sqrt(max(sq, 0)) is within sqrt(err) of the exact d(y, x), with room to
    # spare for the roundings of the square roots and of the margin itself.
    slack = math.sqrt(err)
    margin = reach - np.maximum(np.sqrt(np.maximum(sq, 0.0)), d_xc)
    if margin.max() >= slack:
        return True
    # Margins below -slack are negative exactly too; `~(margin < -slack)`
    # keeps every member when the bound overflowed to inf or nan.
    near = np.flatnonzero(~(margin < -slack))
    if near.size == 0:
        return False
    d_yx = exact_dists(M[near], x)
    return bool(np.any(reach[near] >= np.maximum(d_yx, d_xc)))


def route_sample(
    known: KnownClusters,
    ref: ReferenceSet,
    params: WKNNParams,
    dp: DecisionParams,
    x,
    sample_id: str,
) -> RouteAssignment:
    """Route one stream sample to its known cluster or to the new-family pool.

    The classifier proposes a known cluster; the rule then accepts or
    rejects. Acceptance mutates state according to dp (member list,
    centroid, reference set); rejection leaves everything untouched. The
    returned cluster_id is the proposed known cluster either way; for a New
    route the caller owns the eventual online-cluster id.
    """
    label, _ = classify(ref, params, x)
    cluster = known.cluster_by_id(label)
    if accepts(
        cluster.member_points,
        cluster.centroid,
        x,
        dp.tau,
        sq_norms=cluster.sq_norms,
        centroid_dists=cluster.centroid_dists(),
    ):
        if dp.grow_members:
            cluster.add_member(x, sample_id, update_centroid=dp.update_centroids)
        if dp.grow_reference:
            ref.add(x, label)
        return RouteAssignment(sample_id, Route.KNOWN, label)
    return RouteAssignment(sample_id, Route.NEW, label)


@dataclass(frozen=True)
class TauSweepPoint:
    tau: float
    new_fraction: float


def sweep_tau(
    known: KnownClusters,
    ref: ReferenceSet,
    params: WKNNParams,
    stream: Dataset,
    taus,
    dp: DecisionParams | None = None,
) -> list[TauSweepPoint]:
    """Fraction of the stream routed New, per tau, from a pristine state.

    Acceptance mutates the known clusters and the reference set, so each tau
    replays the whole stream against fresh deep copies; runs never bleed
    into each other. Stream samples must already live in model space.
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
        new_count = 0
        for sample in stream.samples:
            assignment = route_sample(k_copy, r_copy, params, dpt, sample.features, sample.id)
            if assignment.route is Route.NEW:
                new_count += 1
        fraction = new_count / len(stream.samples) if stream.samples else 0.0
        out.append(TauSweepPoint(tau=tau, new_fraction=fraction))
    return out
