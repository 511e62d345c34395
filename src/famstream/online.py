"""Streaming clusterers: sequential k-means, a 1-D self-organizing map, and
the basic sequential algorithmic scheme (BSAS).

Each state consumes one sample per update call and is owned by a single
stream; distinct states may run in parallel. All three are deterministic for
a fixed seed and input order. StreamingClusterer wraps them with the warm-up
buffering the pipeline needs (first-k-distinct initialization for sequential
k-means, a pairwise-distance heuristic for the BSAS threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import check_dim
from .points import condensed_dists, pair_dists

BSAS_WARMUP_SIZE = 100


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Sequential k-means (MacQueen-style)
# ---------------------------------------------------------------------------

@dataclass
class OKMState:
    """k centroids with per-centroid assignment counts."""

    centroids: np.ndarray  # (k, d)
    counts: np.ndarray     # (k,)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def to_dict(self) -> dict:
        return {
            "kind": "okm",
            "centroids": self.centroids.tolist(),
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OKMState":
        return cls(
            centroids=np.asarray(d["centroids"], dtype=np.float64),
            counts=np.asarray(d["counts"], dtype=np.int64),
        )


def okm_init(k: int, warmup) -> OKMState:
    """Initialize sequential k-means from k distinct warm-up vectors."""
    pts = np.array(warmup, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[0] != k:
        raise ValueError(f"expected {k} warm-up vectors, got {pts.shape[0]}")
    if np.unique(pts, axis=0).shape[0] != k:
        raise ValueError("warm-up vectors must be distinct")
    return OKMState(centroids=pts, counts=np.zeros(k, dtype=np.int64))


def okm_update(state: OKMState, x) -> int:
    """Assign x to its nearest centroid and move that centroid.

    The winning centroid i gets n_i += 1 and then moves by (x - mu_i)/n_i,
    i.e. it stays the running mean of everything assigned to it. Ties go to
    the lowest index. Returns the winning index.
    """
    x = np.asarray(x, dtype=np.float64)
    check_dim(state.centroids.shape[1], x.shape[-1], "okm_update")
    diff = state.centroids - x
    i = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
    state.counts[i] += 1
    if state.counts[i] == 1:
        state.centroids[i] = x
    else:
        state.centroids[i] += (x - state.centroids[i]) / state.counts[i]
    return i


# ---------------------------------------------------------------------------
# Self-organizing map on a 1 x n line
# ---------------------------------------------------------------------------

@dataclass
class SOMState:
    """Kohonen map state: unit weights plus decay schedules.

    Units sit on a 1 x n line, so the lattice distance between units c and
    i is |c - i|. The learning rate and neighborhood width decay as
    alpha0 * exp(-t / lambda_alpha) and sigma0 * exp(-t / lambda_sigma).
    sigma0 = 0 selects the indicator (winner-only) kernel, the zero-radius
    limit in which a k-unit map behaves like k-means. alpha_mode
    "win_count" replaces the schedule with 1 / (wins of the winner), the
    sequential k-means correspondence.
    """

    weights: np.ndarray          # (n, d)
    t: int
    alpha0: float
    lambda_alpha: float
    sigma0: float
    lambda_sigma: float
    grid_positions: np.ndarray   # (n,)
    counts: np.ndarray           # per-unit win counters
    alpha_mode: str = "exponential"
    # -|c - i|^2 for every pair of units, row c for winner c; derived, not saved.
    neg_sq_lattice: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d_grid = np.abs(self.grid_positions[:, None] - self.grid_positions[None, :])
        self.neg_sq_lattice = -(d_grid ** 2)

    @property
    def n_units(self) -> int:
        return self.weights.shape[0]

    def alpha(self) -> float:
        return self.alpha0 * math.exp(-self.t / self.lambda_alpha)

    def sigma(self) -> float:
        if self.sigma0 == 0.0:
            return 0.0
        return self.sigma0 * math.exp(-self.t / self.lambda_sigma)

    def to_dict(self) -> dict:
        return {
            "kind": "som",
            "weights": self.weights.tolist(),
            "t": self.t,
            "alpha0": self.alpha0,
            "lambda_alpha": self.lambda_alpha,
            "sigma0": self.sigma0,
            "lambda_sigma": self.lambda_sigma,
            "grid_positions": self.grid_positions.tolist(),
            "counts": self.counts.tolist(),
            "alpha_mode": self.alpha_mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SOMState":
        return cls(
            weights=np.asarray(d["weights"], dtype=np.float64),
            t=int(d["t"]),
            alpha0=float(d["alpha0"]),
            lambda_alpha=float(d["lambda_alpha"]),
            sigma0=float(d["sigma0"]),
            lambda_sigma=float(d["lambda_sigma"]),
            grid_positions=np.asarray(d["grid_positions"], dtype=np.float64),
            counts=np.asarray(d["counts"], dtype=np.int64),
            alpha_mode=str(d["alpha_mode"]),
        )


def som_init(
    n_units: int,
    dim: int,
    seed=0,
    alpha0: float = 0.5,
    lambda_alpha: float = 1000.0,
    sigma0: float | None = None,
    lambda_sigma: float = 1000.0,
    alpha_mode: str = "exponential",
) -> SOMState:
    """Create a map of n_units weight vectors drawn uniformly from [-0.1, 0.1]^dim.

    sigma0 defaults to n_units / 2. The lambda parameters should be set to
    the expected stream length; they default to 1000 for standalone use.
    """
    if n_units < 1:
        raise ValueError(f"n_units must be >= 1, got {n_units}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not 0.0 < alpha0 <= 1.0:
        raise ValueError(f"alpha0 must be in (0, 1], got {alpha0}")
    if lambda_alpha <= 0 or lambda_sigma <= 0:
        raise ValueError("decay constants must be positive")
    if sigma0 is None:
        sigma0 = n_units / 2.0
    if sigma0 < 0:
        raise ValueError(f"sigma0 must be >= 0, got {sigma0}")
    if alpha_mode not in ("exponential", "win_count"):
        raise ValueError(f"unknown alpha_mode {alpha_mode!r}")
    rng = _rng(seed)
    return SOMState(
        weights=rng.uniform(-0.1, 0.1, size=(n_units, dim)),
        t=0,
        alpha0=float(alpha0),
        lambda_alpha=float(lambda_alpha),
        sigma0=float(sigma0),
        lambda_sigma=float(lambda_sigma),
        grid_positions=np.arange(n_units, dtype=np.float64),
        counts=np.zeros(n_units, dtype=np.int64),
        alpha_mode=alpha_mode,
    )


def som_update(state: SOMState, x) -> int:
    """One competitive-learning step; returns the best-matching unit.

    The winner c minimizes ||x - w_i|| (ties to the lowest index). Every
    unit then moves by alpha(t) * h_ci(t) * (x - w_i) with the Gaussian
    lattice kernel h_ci = exp(-|c - i|^2 / (2 sigma(t)^2)), after which t
    advances and both schedules decay.
    """
    x = np.asarray(x, dtype=np.float64)
    check_dim(state.weights.shape[1], x.shape[-1], "som_update")
    diff = state.weights - x
    c = int(np.einsum("ij,ij->i", diff, diff).argmin())
    state.counts[c] += 1
    if state.alpha_mode == "win_count":
        a = 1.0 / state.counts[c]
    else:
        a = state.alpha()
    s = state.sigma()
    # diff = w - x, so subtracting alpha * h * diff is, bit for bit, adding
    # alpha * h * (x - w): IEEE subtraction and products are sign-symmetric.
    if s == 0.0:
        state.weights[c] -= a * diff[c]
    else:
        h = np.exp(state.neg_sq_lattice[c] / (2.0 * s * s))
        state.weights -= (a * h)[:, None] * diff
    state.t += 1
    return c


# ---------------------------------------------------------------------------
# Basic sequential algorithmic scheme
# ---------------------------------------------------------------------------

@dataclass
class BSASState:
    """Threshold-driven sequential clustering with at most q clusters."""

    theta: float
    q: int
    centroids: np.ndarray | None = None  # (m, d)
    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def m(self) -> int:
        return 0 if self.centroids is None else self.centroids.shape[0]

    def to_dict(self) -> dict:
        return {
            "kind": "bsas",
            "theta": self.theta,
            "q": self.q,
            "centroids": None if self.centroids is None else self.centroids.tolist(),
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BSASState":
        centroids = d["centroids"]
        return cls(
            theta=float(d["theta"]),
            q=int(d["q"]),
            centroids=None if centroids is None else np.asarray(centroids, dtype=np.float64),
            counts=np.asarray(d["counts"], dtype=np.int64),
        )


def bsas_init(theta: float, q: int) -> BSASState:
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return BSASState(theta=float(theta), q=int(q))


def bsas_update(state: BSASState, x) -> tuple[int, bool]:
    """Assign x to the nearest cluster or found a new one.

    The very first sample founds cluster 0 unconditionally. Afterwards a new
    cluster appears only when the nearest centroid is farther than theta and
    fewer than q clusters exist; otherwise x joins the nearest cluster and
    its centroid advances as a running mean. Returns (cluster index,
    created).
    """
    x = np.asarray(x, dtype=np.float64)
    if state.centroids is None:
        state.centroids = x[None, :].copy()
        state.counts = np.ones(1, dtype=np.int64)
        return 0, True
    check_dim(state.centroids.shape[1], x.shape[-1], "bsas_update")
    diff = state.centroids - x
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    k = int(np.argmin(dists))
    if dists[k] > state.theta and state.m < state.q:
        state.centroids = np.vstack([state.centroids, x[None, :]])
        state.counts = np.append(state.counts, 1)
        return state.m - 1, True
    state.counts[k] += 1
    state.centroids[k] += (x - state.centroids[k]) / state.counts[k]
    return k, False


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _state_centroids(state) -> np.ndarray:
    if isinstance(state, OKMState):
        return state.centroids
    if isinstance(state, SOMState):
        return state.weights
    if isinstance(state, BSASState):
        if state.centroids is None:
            raise ValueError("BSAS state has no clusters yet")
        return state.centroids
    raise TypeError(f"unsupported state type {type(state).__name__}")


def final_assign(state, points) -> np.ndarray:
    """Map each point to its nearest centroid (SOM: best-matching unit)."""
    X = np.asarray(points, dtype=np.float64)
    if X.size == 0:
        return np.zeros(0, dtype=np.intp)
    if X.ndim == 1:
        X = X[None, :]
    centroids = _state_centroids(state)
    check_dim(centroids.shape[1], X.shape[1], "final_assign")
    return np.argmin(pair_dists(X, centroids), axis=1)


class StreamingClusterer:
    """One-sample-at-a-time front end over OKM / SOM / BSAS.

    Handles the warm-up each algorithm needs before its first real update:
    sequential k-means buffers the stream until k distinct vectors have
    arrived and uses them as initial centroids (then replays the buffer
    through normal updates); BSAS without an explicit theta buffers 100
    samples and sets theta to half their mean pairwise distance. The SOM
    needs no warm-up. `emitted` records the emission-time cluster index for
    every pushed sample once the state is live.
    """

    def __init__(
        self,
        algorithm: str,
        n_clusters: int,
        dim: int,
        seed: int = 0,
        expected_stream_length: int | None = None,
        bsas_theta: float | None = None,
    ):
        if algorithm not in ("okm", "som", "bsas"):
            raise ValueError(f"unknown online algorithm {algorithm!r}")
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        self.algorithm = algorithm
        self.n_clusters = int(n_clusters)
        self.dim = int(dim)
        self.state = None
        self.emitted: list[int] = []
        self._pending: list[np.ndarray] = []
        self._warmup: list[np.ndarray] = []  # okm: distinct pending vectors, first seen first
        self._seen: set[tuple] = set()
        self._finalized = False
        if algorithm == "som":
            horizon = max(float(expected_stream_length or 1000), 1.0)
            self.state = som_init(
                n_clusters, dim, seed=seed, lambda_alpha=horizon, lambda_sigma=horizon
            )
        elif algorithm == "bsas" and bsas_theta is not None:
            self.state = bsas_init(bsas_theta, n_clusters)

    def push(self, x) -> int | None:
        """Feed one sample; returns its cluster index, or None while buffering."""
        if self._finalized:
            raise RuntimeError("clusterer already finalized")
        x = np.asarray(x, dtype=np.float64)
        if self.state is None:
            self._pending.append(x)
            if self.algorithm == "okm":
                key = tuple(x)
                if key not in self._seen:
                    self._seen.add(key)
                    self._warmup.append(x)
                if len(self._warmup) >= self.n_clusters:
                    self._start_okm()
                    return self.emitted[-1]
            elif self.algorithm == "bsas":
                if len(self._pending) >= BSAS_WARMUP_SIZE:
                    self._start_bsas()
                    return self.emitted[-1]
            return None
        idx = self._update(x)
        self.emitted.append(idx)
        return idx

    def _update(self, x) -> int:
        if self.algorithm == "okm":
            return okm_update(self.state, x)
        if self.algorithm == "som":
            return som_update(self.state, x)
        idx, _ = bsas_update(self.state, x)
        return idx

    def _start_okm(self) -> None:
        self.state = okm_init(len(self._warmup), np.stack(self._warmup))
        self._warmup, self._seen = [], set()
        self._replay()

    def _start_bsas(self) -> None:
        buf = np.stack(self._pending)
        if buf.shape[0] >= 2:
            theta = 0.5 * float(condensed_dists(buf).mean())
        else:
            theta = 1.0
        self.state = bsas_init(max(theta, np.finfo(float).tiny), self.n_clusters)
        self._replay()

    def _replay(self) -> None:
        pending, self._pending = self._pending, []
        for p in pending:
            self.emitted.append(self._update(p))

    def finalize(self):
        """Flush any warm-up buffer and return the trained state (or None).

        A stream that ended mid-warm-up still gets clustered: sequential
        k-means falls back to however many distinct vectors arrived, BSAS
        derives theta from the short buffer. Returns None when nothing was
        pushed at all (SOM excepted, which always has a state).
        """
        if self._finalized:
            return self.state
        self._finalized = True
        if self.state is None and self._pending:
            if self.algorithm == "okm":
                self._start_okm()
            else:
                self._start_bsas()
        return self.state
