"""Delayed-potential evaluation.

The potential of a source of mass M is an exponentially weighted average of
instantaneous Newton potentials over the source's past positions:

    phi(r, t) = integral_0^inf  (-G M / |r - x(t - tau)|) e^(-tau/tau_g) dtau / tau_g

evaluated either along a caller-supplied path (the "naive" form, valid only
in the source's co-moving free-fall frame) or via the full prescription that
builds that frame first and transforms the result back, which is a no-op for
the scalar potential because the frame is a pure translation.

Quadrature truncates at t_max_factor * tau_g; the dropped tail mass
e^(-t_max_factor) is below double precision relevance at the default 40 and
is not renormalized away.
"""

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .constants import G
from .errors import AdaptiveBudgetExceeded, SingularApproach
from .frames import build_frame, relative_source_path
from .kinematics import as_vec3

__all__ = [
    "GaussLegendre",
    "AdaptiveSimpson",
    "KernelParams",
    "Source",
    "KernelNodes",
    "kernel_weights",
    "delayed_potential_naive",
    "delayed_potential",
    "delayed_field",
    "superposed_potential",
    "PreparedScene",
    "prepare_scene",
    "scene_potential_field",
]

CHUNK = 512  # grid points per evaluation block; fixed so thread count never changes results
# integrand evaluations one adaptive integral may spend; the test suite's
# hardest converging integral needs about 12,000
_ADAPTIVE_BUDGET = 100_000


@dataclass(frozen=True)
class GaussLegendre:
    """Composite Gauss-Legendre rule, one panel per kernel segment.

    Segments never exceed ``max_segment_tau_g`` kernel time constants, so a
    32-point panel integrates the exponential times any smooth path factor to
    near machine precision.
    """

    order: int = 32
    max_segment_tau_g: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "max_segment_tau_g", float(self.max_segment_tau_g))
        if self.order < 2:
            raise ValueError("order must be at least 2")
        if not self.max_segment_tau_g > 0.0:
            raise ValueError("max_segment_tau_g must be positive")


@dataclass(frozen=True)
class AdaptiveSimpson:
    """Globally adaptive Simpson rule with Richardson acceptance test."""

    rel_tol: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "rel_tol", float(self.rel_tol))
        if not 0.0 < self.rel_tol <= 1e-6:
            raise ValueError("rel_tol must be in (0, 1e-6]")


@dataclass(frozen=True)
class KernelParams:
    """Memory-kernel time constant and evaluation controls.

    tau_g = 0 selects the instantaneous Newtonian limit (no quadrature).
    softening_eps is a guard radius: any evaluation that comes closer than
    this to a past source position raises SingularApproach instead of being
    smoothed over.
    """

    tau_g: float
    t_max_factor: float = 40.0
    softening_eps: float = 1e-9
    quadrature: object = field(default_factory=GaussLegendre)

    def __post_init__(self):
        object.__setattr__(self, "tau_g", float(self.tau_g))
        object.__setattr__(self, "t_max_factor", float(self.t_max_factor))
        object.__setattr__(self, "softening_eps", float(self.softening_eps))
        if not (math.isfinite(self.tau_g) and self.tau_g >= 0.0):
            raise ValueError("tau_g must be finite and >= 0")
        if not self.t_max_factor >= 20.0:
            raise ValueError("t_max_factor must be >= 20 (keeps the dropped tail negligible)")
        if not self.softening_eps > 0.0:
            raise ValueError("softening_eps must be positive")
        if not isinstance(self.quadrature, (GaussLegendre, AdaptiveSimpson)):
            raise ValueError("quadrature must be GaussLegendre or AdaptiveSimpson")

    @property
    def t_max(self):
        """Look-back truncation time t_max_factor * tau_g."""
        return self.t_max_factor * self.tau_g


@dataclass(frozen=True, eq=False)
class Source:
    """A point mass riding a trajectory."""

    mass: float
    trajectory: object

    def __post_init__(self):
        object.__setattr__(self, "mass", float(self.mass))
        if not self.mass > 0.0:
            raise ValueError("mass must be positive")


@dataclass(frozen=True, eq=False)
class KernelNodes:
    """Fixed quadrature nodes for the kernel integral; iterates as (tau, weight) pairs.

    Weights absorb the exponential density, so sum(weights) equals the kernel
    mass on [0, t_max], 1 - e^(-t_max_factor).
    """

    taus: np.ndarray
    weights: np.ndarray
    n_segments: int

    def __iter__(self):
        return iter(zip(self.taus, self.weights))

    def __len__(self):
        return self.taus.size


_leggauss = lru_cache(maxsize=8)(np.polynomial.legendre.leggauss)


def _clean_breakpoints(breakpoints, t_max):
    """Sorted breakpoints strictly inside (0, t_max), deduplicated."""
    eps = 1e-12 * t_max
    out = []
    for b in sorted(float(b) for b in breakpoints):
        if b <= eps or b >= t_max - eps:
            continue
        if out and b - out[-1] <= eps:
            continue
        out.append(b)
    return out


def kernel_weights(params, breakpoints=()):
    """Node/weight table covering [0, t_max], split at the given kernel lags.

    Only the Gauss-Legendre scheme has a fixed node table; the adaptive
    scheme chooses nodes per integrand and is rejected here. tau_g = 0 has no
    kernel at all (instantaneous limit).
    """
    if params.tau_g == 0.0:
        raise ValueError("tau_g = 0 is the instantaneous limit; it has no kernel nodes")
    spec = params.quadrature
    if not isinstance(spec, GaussLegendre):
        raise ValueError("kernel_weights needs the fixed-node GaussLegendre scheme")
    t_max = params.t_max
    tau_g = params.tau_g
    bounds = [0.0] + _clean_breakpoints(breakpoints, t_max) + [t_max]
    x, w = _leggauss(spec.order)
    max_seg = spec.max_segment_tau_g * tau_g
    # panel edges: each [a, b] split evenly into panels of at most max_seg
    edges = np.append(np.concatenate([
        np.linspace(a, b, max(1, math.ceil((b - a) / max_seg - 1e-12)) + 1)[:-1]
        for a, b in zip(bounds[:-1], bounds[1:])
    ]), t_max)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    taus = 0.5 * (hi + lo) + half * x
    weights = half * w * np.exp(-taus / tau_g) / tau_g
    return KernelNodes(taus.ravel(), weights.ravel(), len(edges) - 1)


def _instantaneous(mass, pos, r, eps):
    """Newtonian potential and field of a point mass at ``pos``."""
    u = r - pos
    d = float(np.sqrt(u @ u))
    if d <= eps:
        raise SingularApproach(
            f"field point {d:.3e} m from the source (guard radius {eps:.3e} m)",
            distance=d,
        )
    return -G * mass / d, (-G * mass / d**3) * u


def _guard_error(d, when, eps, i):
    msg = f"source {i}: field point {d:.3e} m from the past source path (guard radius {eps:.3e} m)"
    return SingularApproach(msg, distance=d, when=when, source_index=i)


def _adaptive_step(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    flm = f(0.5 * (a + m))
    frm = f(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or float(np.abs(delta).max()) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adaptive_step(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adaptive_step(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def _adaptive_integral(f, bounds, rel_tol):
    """Adaptive Simpson of a scalar or vector integrand over consecutive segments.

    Integrands the rule cannot resolve, such as a field point on the past
    path, raise AdaptiveBudgetExceeded after _ADAPTIVE_BUDGET evaluations
    instead of recursing without end.
    """
    calls = itertools.count(1)

    def counted(x):
        if next(calls) > _ADAPTIVE_BUDGET:
            raise AdaptiveBudgetExceeded(
                f"adaptive Simpson: no convergence in {_ADAPTIVE_BUDGET} evaluations")
        return f(x)

    segs = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        fa, fm, fb = counted(a), counted(0.5 * (a + b)), counted(b)
        segs.append((a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb)))
    scale = float(np.max(np.abs(sum(seg[-1] for seg in segs))))
    tol = rel_tol * (scale if scale > 0.0 else 1.0) / len(segs)
    return sum(_adaptive_step(counted, *seg, tol, 48) for seg in segs)


def _tau_breakpoints(trajectory, t, params):
    return [t - s for s in trajectory.breakpoints_in(t - params.t_max, t)]


def _framed(source, ambient, t, params):
    """(source, path, shift) of ``source`` seen from its free-fall frame matched at t."""
    if params.tau_g == 0.0:  # no look-back: only the lab position at t matters
        return source, source.trajectory.position, 0.0
    frame = build_frame(source.trajectory, ambient, t, params.t_max)
    return source, partial(relative_source_path, frame, source.trajectory), frame.origin(t)


def _path_nodes(source, path, shift, t, params):
    """Effective node masses of one source: positions, weights and lag times.

    The node at lag tau sits at path(t - tau) + shift and carries -G M times
    its kernel weight. The naive route passes the lab path and no shift; the
    framed route passes the frame-relative path and the frame origin at t.
    """
    if params.tau_g == 0.0:
        return path(t)[None, :] + shift, np.array([-G * source.mass]), np.zeros(1)
    nodes = kernel_weights(params, _tau_breakpoints(source.trajectory, t, params))
    return path(t - nodes.taus) + shift, -G * source.mass * nodes.weights, nodes.taus


def _adaptive_point(framed, r, t, params):
    """Adaptive-Simpson (potential, field x, y, z) at one point, summed over sources.

    ``framed`` holds (source, path, shift) triples as for _path_nodes. The
    rule picks its own nodes per integrand, so it cross-checks the node-table
    route rather than sharing its errors.
    """
    tau_g = params.tau_g
    eps = params.softening_eps
    total = np.zeros(4)
    for i, (src, path, shift) in enumerate(framed):

        def f(tau, mass=src.mass, path=path, rel=r - shift, i=i):
            u = rel - path(t - tau)
            d2 = float(u @ u)
            d = math.sqrt(d2)
            if d <= eps:
                raise _guard_error(d, t - tau, eps, i)
            c = math.exp(-tau / tau_g) / tau_g * (-G * mass)
            return np.array([c / d, c * u[0] / (d2 * d), c * u[1] / (d2 * d), c * u[2] / (d2 * d)])

        bps = _clean_breakpoints(_tau_breakpoints(src.trajectory, t, params), params.t_max)
        total += _adaptive_integral(f, [0.0] + bps + [params.t_max], params.quadrature.rel_tol)
    return total


@dataclass(frozen=True, eq=False)
class PreparedScene:
    """Sources reduced to weighted effective point masses at one evaluation time.

    In each source's free-fall frame the retarded position at lag tau is
    xi(t - tau); shifting back by the frame origin at t gives a lab-frame
    point whose instantaneous Newton kernel, weighted by the kernel node
    weight times -G M, contributes linearly to potential and field. A whole
    scene then evaluates as a plain N-body sum over these nodes.
    """

    positions: np.ndarray  # (K, 3)
    weights: np.ndarray  # (K,), include the -G*M factor
    lags: np.ndarray  # (K,), kernel lag tau of each node
    softening_eps: float
    n_nodes_per_source: tuple


def _scene(framed, t, params):
    parts = [_path_nodes(*f, t, params) for f in framed]
    empty = (np.zeros((0, 3)), np.zeros(0), np.zeros(0))  # keeps a source-free scene well formed
    positions, weights, lags = (np.concatenate(p) for p in zip(*parts, empty))
    counts = tuple(len(w) for _, w, _ in parts)
    return PreparedScene(positions, weights, lags, params.softening_eps, counts)


def prepare_scene(sources, ambient, t, params):
    """Collapse every source to its effective kernel-node masses at time t."""
    if isinstance(params.quadrature, AdaptiveSimpson) and params.tau_g > 0.0:
        raise ValueError("scene preparation needs a fixed node table; use GaussLegendre")
    t = float(t)
    return _scene([_framed(src, ambient, t, params) for src in sources], t, params)


def _eval_block(scene, pts):
    """Potential/field of a prepared scene on one block of points.

    Each point reduces along its own contiguous row, so results are bitwise
    reproducible for any thread count. The potential uses numpy's pairwise
    sum, whose rounding grows with log K, not K: shift fits amplify ulp noise
    by the probe-distance / displacement ratio.
    """
    d = pts[:, None, :] - scene.positions[None, :, :]  # (b, K, 3)
    r2 = np.einsum("bkj,bkj->bk", d, d)
    r = np.sqrt(r2)
    singular = np.any(r <= scene.softening_eps, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = scene.weights / r
        phi = inv.sum(axis=1)
        grad = np.einsum("bk,bkj->bj", inv / r2, d)
    phi[singular] = np.nan
    grad[singular] = np.nan
    return phi, grad, singular


def _values(framed, pts, t, params):
    """Potential (n,), field (n, 3) and nodes per source at points.

    ``framed`` holds (source, path, shift) triples as for _path_nodes; one
    node table per source serves every point. A guard hit raises
    SingularApproach describing the node nearest the first guarded point.
    """
    if isinstance(params.quadrature, AdaptiveSimpson) and params.tau_g > 0.0:
        out = np.array([_adaptive_point(framed, r, t, params) for r in pts]).reshape(-1, 4)
        return out[:, 0], out[:, 1:], (0,) * len(framed)
    scene = _scene(framed, t, params)
    phi, grad, singular = _eval_block(scene, pts)
    if singular.any():
        u = pts[np.argmax(singular)] - scene.positions
        d = np.sqrt(np.einsum("kj,kj->k", u, u))
        k = int(np.argmin(d))
        i = int(np.searchsorted(np.cumsum(scene.n_nodes_per_source), k, side="right"))
        raise _guard_error(float(d[k]), t - float(scene.lags[k]), scene.softening_eps, i)
    return phi, grad, scene.n_nodes_per_source


def delayed_potential_naive(source, r, t, params, *, path=None):
    """Delayed potential along an explicit path, no frame construction.

    ``path`` defaults to the source's lab trajectory. This form is only
    physically meaningful when the supplied path already lives in the
    source's co-moving free-fall frame; applied to a boosted lab description
    it reproduces the frame-dependence this law's frame prescription removes.
    """
    r = as_vec3(r, "r")
    t = float(t)
    if path is None:
        path = source.trajectory.position
    if params.tau_g == 0.0:
        return _instantaneous(source.mass, path(t), r, params.softening_eps)[0]
    return float(_values([(source, path, 0.0)], r[None, :], t, params)[0][0])


def _framed_point(source, ambient, r, t, params):
    r = as_vec3(r, "r")
    t = float(t)
    if params.tau_g == 0.0:
        return _instantaneous(source.mass, source.trajectory.position(t), r, params.softening_eps)
    phi, grad, _ = _values([_framed(source, ambient, t, params)], r[None, :], t, params)
    return float(phi[0]), grad[0]


def delayed_potential(source, ambient, r, t, params):
    """Full prescription: evaluate in the co-moving free-fall frame at t.

    The frame is a pure translation, so the scalar value needs no transform
    back to the lab.
    """
    return _framed_point(source, ambient, r, t, params)[0]


def delayed_field(source, ambient, r, t, params):
    """Gravitational acceleration -grad(phi); directions are translation-invariant."""
    return _framed_point(source, ambient, r, t, params)[1]


def superposed_potential(sources, ambient, r, t, params):
    """Potential of independently framed sources at one point, from one prepared scene.

    A guard hit names the offending source in SingularApproach.source_index.
    """
    t = float(t)
    framed = [_framed(src, ambient, t, params) for src in sources]
    return float(_values(framed, as_vec3(r, "r")[None, :], t, params)[0][0])


def _adaptive_block(framed, t, params, pts):
    """_eval_block's contract for the adaptive scheme, one point at a time."""
    out = np.full((pts.shape[0], 4), np.nan)
    singular = np.zeros(pts.shape[0], dtype=bool)
    for i, r in enumerate(pts):
        try:
            out[i] = _adaptive_point(framed, r, t, params)
        except SingularApproach:
            singular[i] = True
    return out[:, 0], out[:, 1:], singular


def _resolve_threads(threads):
    if threads in (None, 0):
        return min(8, os.cpu_count() or 1)
    n = int(threads)
    if n < 0:
        raise ValueError("thread count must be >= 0")
    return max(1, n)


def scene_potential_field(sources, ambient, points, t, params, threads=0):
    """Potential and field of a scene on many points at one time.

    Returns (phi (n,), grad (n,3), singular (n,) bool). Points inside the
    guard radius of any effective node produce nan rows and a True mask
    entry instead of raising, so grid sweeps can report and continue.
    Identical inputs give byte-identical outputs for any ``threads``;
    0 means automatic.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    t = float(t)
    n = pts.shape[0]
    phi = np.empty(n)
    grad = np.empty((n, 3))
    singular = np.zeros(n, dtype=bool)

    if isinstance(params.quadrature, AdaptiveSimpson) and params.tau_g > 0.0:
        framed = [_framed(src, ambient, t, params) for src in sources]
        block = partial(_adaptive_block, framed, t, params)
    else:
        block = partial(_eval_block, prepare_scene(sources, ambient, t, params))

    def run_block(lo, hi):
        phi[lo:hi], grad[lo:hi], singular[lo:hi] = block(pts[lo:hi])

    blocks = [(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]
    workers = _resolve_threads(threads)
    if workers == 1 or len(blocks) <= 1:
        for lo, hi in blocks:
            run_block(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: run_block(*b), blocks))
    return phi, grad, singular
