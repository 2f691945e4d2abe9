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

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from functools import cache, lru_cache, partial
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .constants import G
from .errors import AdaptiveBudgetExceeded, SingularApproach
from .frames import build_frames, relative_source_path
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
    "prepare_scenes",
    "scene_potential_field",
    "scene_potential_fields",
]

# grid points per evaluation block. A panel splits for at most one block of
# points (_eval_block), so a fixed size keeps a given map's bytes fixed.
CHUNK = 512
TILE = 16  # fewest rows of a block summed together (see _tile_rows)
TILE_CELLS = 8192  # (rows, K) entries of a tile: one float64 array of 64 KiB
MAX_SPLIT = 100  # most equal sub-panels one coarse panel splits into near the past path
MAX_TURN = 4.0  # radians of a winding path (Trajectory.turn_rate) one panel may span
# 2 ln(2 + sqrt 5), correctly rounded: the exponent each Gauss-Legendre node
# gains on a panel whose nearest singularity sits at rho = 2 + sqrt 5 (_panel_orders)
_NODE_GAIN = 2.8872709503576206
# integrand evaluations one adaptive integral may spend; the test suite's
# hardest converging integral needs about 12,000
_ADAPTIVE_BUDGET = 100_000


@dataclass(frozen=True)
class GaussLegendre:
    """Composite Gauss-Legendre rule, one panel per kernel segment.

    Segments never exceed ``max_segment_tau_g`` kernel time constants: the
    default 5 gives 8 panels over the 40 tau_g window. A path that winds (an
    orbit) gets panels of at most MAX_TURN radians of it, down to
    1 / MAX_SPLIT of the default length (see kernel_weights). Each panel's
    order is graded by the kernel weight it carries, from order / 2 on the
    first panel down to 2 (_panel_orders): 83 nodes on the default table.
    Where a field point comes closer to a panel's stretch of past path than
    the stretch is long, the evaluator splits that panel into equal
    sub-panels of the full ``order`` for that block of points (see
    _split_counts).
    """

    order: int = 32
    max_segment_tau_g: float = 5.0

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
    """Fixed quadrature nodes for the kernel integral.

    Weights absorb the exponential density, so sum(weights) equals the kernel
    mass on [0, t_max], 1 - e^(-t_max_factor), to within an ulp wherever the
    rule has converged, and exactly on every default table tested (see
    _match_mass). Panel i holds nodes starts[i] up to starts[i + 1] and
    spans the lags edges[i] to edges[i + 1].
    """

    taus: np.ndarray
    weights: np.ndarray
    edges: np.ndarray  # (P + 1,)
    starts: np.ndarray  # (P + 1,), node offset of each panel, then the node count

    @property
    def n_segments(self):
        return self.edges.size - 1

    def __len__(self):
        return self.taus.size


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, in the precision of x."""
    p0, p1 = 1, x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1)


@cache  # one entry per order asked for: the graded orders of every table, and the split order
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], correctly rounded to float64.

    numpy's leggauss weights carry relative errors up to 6e-14 at order 32
    and 1e-12 at order 64, which a 5 tau_g panel no longer averages away.
    Three Newton steps in 40-digit decimal arithmetic polish its
    non-negative nodes (from about 16 digits to the working precision), and
    the weights come from the polished nodes; both then round once to
    float64, so the rule is the same on every platform. Order 32 takes about
    5 ms, once per process.
    """
    start = np.polynomial.legendre.leggauss(n)[0][n // 2:]
    half = []
    with localcontext() as ctx:
        ctx.prec = 40
        for i, x in enumerate(start):
            if n % 2 and i == 0:
                x = Decimal(0)  # an odd order's middle node
            else:
                x = Decimal(float(x))
                for _ in range(3):
                    p, dp = _legendre(n, x)
                    x -= p / dp
            dp = _legendre(n, x)[1]
            half.append((float(x), float(2 / ((1 - x * x) * dp * dp))))
    x, w = np.array(half).T
    nodes = np.concatenate([-x[n % 2:][::-1], x])
    weights = np.concatenate([w[n % 2:][::-1], w])
    nodes.flags.writeable = weights.flags.writeable = False  # cached, shared by every caller
    return nodes, weights


def _panel_orders(lags, tau_g, order):
    """Gauss-Legendre order (a tuple) of each coarse panel from its start lag.

    An unsplit point lies at least a panel length from the panel's stretch
    of path (_split_counts), so the path factor's nearest singularity sits
    at rho >= 2 + sqrt 5 and each node gains a factor e^_NODE_GAIN. A panel
    starting at lag a carries about e^(-a) of the kernel mass, so it needs
    a / _NODE_GAIN fewer nodes than the first panel for the same absolute
    error. The first panel gets order / 2, rounded up, so doubling
    ``order`` raises every panel short of the floor of 2 (criterion 7
    compares two different tables).
    """
    n = np.ceil(0.5 * order - lags * (1.0 / (tau_g * _NODE_GAIN)))
    return tuple(np.maximum(n, 2.0).astype(int).tolist())


@lru_cache(maxsize=256)
def _composite_rule(orders):
    """Rules of the given orders (a tuple) laid end to end on [-1, 1]: nodes, weights, orders, offsets.

    Panel i holds nodes starts[i] up to starts[i + 1]. Each node is looked up
    in one table of the distinct orders' rules. The result is cached, since
    a table's orders repeat wherever its breakpoints do.
    """
    orders = np.array(orders)
    starts = np.concatenate([[0], np.cumsum(orders)])
    distinct, which = np.unique(orders, return_inverse=True)
    rules = [_gauss_legendre(int(n)) for n in distinct]
    first = np.concatenate([[0], np.cumsum(distinct)[:-1]])
    at = np.arange(starts[-1]) + np.repeat(first[which] - starts[:-1], orders)
    out = np.concatenate([x for x, _ in rules])[at], np.concatenate([w for _, w in rules])[at], orders, starts
    for a in out:
        a.flags.writeable = False  # cached, shared by every caller
    return out


def _panel_nodes(edges, tau_g, orders):
    """Lags, kernel weights and panel offsets of an orders[i]-point rule on each [edges[i], edges[i + 1]].

    ``orders`` is a tuple, one order per panel. Lags and weights are flat
    (K,); panel i holds nodes starts[i] up to starts[i + 1]. The
    density e^(-tau/tau_g) is taken as e^(-mid) e^(-half x), so a node's own
    rounding stays out of the exponent; at 35 tau_g that rounding alone
    moved a panel's weight sum by 4 ulp.
    """
    x, w, orders, starts = _composite_rule(orders)
    lo, hi = edges[:-1], edges[1:]
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    decay = np.repeat(np.exp(-mid / tau_g), orders)
    half, mid = np.repeat(half, orders), np.repeat(mid, orders)
    taus = mid + half * x
    return taus, half * w * decay * np.exp(-half * x / tau_g) / tau_g, starts


def _match_mass(weights, mass):
    """Nudge the largest weights until weights.sum() == mass, in place.

    Each weight is within a few ulps of exact, but their roundings need not
    cancel in the sum. Only such rounding-level misses, up to 16 ulps of the
    mass, are corrected; a larger miss is the rule's own truncation error (a
    low order on long panels) and stays visible. The largest weight takes
    the whole miss, then single-ulp steps follow; a step that jumps the sum
    over ``mass`` moves on to the next-largest weight, whose ulp is finer.
    The sum ends within an ulp of the mass even if the 64 steps run out.
    """
    miss = weights.sum() - mass
    if miss == 0.0 or abs(miss) > 16.0 * math.ulp(mass):
        return
    order = np.argsort(weights)[::-1]
    weights[order[0]] -= miss
    j = 0
    for _ in range(64):
        last, miss = miss, weights.sum() - mass
        if miss == 0.0:
            return
        if miss * last < 0.0:
            j = min(j + 1, order.size - 1)
        weights[order[j]] = np.nextafter(weights[order[j]], -math.copysign(math.inf, miss))


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


def _panel_length(params, turn_rate):
    """Longest panel of a table: ``max_segment_tau_g`` time constants, cut to
    MAX_TURN radians of a path winding at ``turn_rate``, down to 1 / MAX_SPLIT
    of that."""
    max_seg = params.quadrature.max_segment_tau_g * params.tau_g
    if turn_rate * max_seg > MAX_TURN:
        max_seg = max(MAX_TURN / turn_rate, max_seg / MAX_SPLIT)
    return max_seg


def kernel_weights(params, breakpoints=(), *, turn_rate=0.0):
    """Node/weight table covering [0, t_max], split at the given kernel lags.

    Panels span at most ``max_segment_tau_g`` time constants and at most
    MAX_TURN radians of a path winding at ``turn_rate`` (rad/s), but never
    less than 1 / MAX_SPLIT of the former. A 32-point panel over many turns
    of an orbit aliases it: at omega tau_g = 25, 5 tau_g panels missed a
    field point 64 radii off the orbit by 3e-5 relative. Each panel's order
    follows from its start lag (_panel_orders). Only the
    Gauss-Legendre scheme has a fixed node table; the adaptive scheme
    chooses nodes per integrand and is rejected here. tau_g = 0 has no
    kernel at all (instantaneous limit).
    """
    if params.tau_g == 0.0:
        raise ValueError("tau_g = 0 is the instantaneous limit; it has no kernel nodes")
    spec = params.quadrature
    if not isinstance(spec, GaussLegendre):
        raise ValueError("kernel_weights needs the fixed-node GaussLegendre scheme")
    t_max = params.t_max
    bounds = [0.0] + _clean_breakpoints(breakpoints, t_max) + [t_max]
    max_seg = _panel_length(params, turn_rate)
    # panel edges: each [a, b] split evenly into panels of at most max_seg
    edges = np.concatenate([
        np.linspace(a, b, max(1, math.ceil((b - a) / max_seg - 1e-12)) + 1)[:-1]
        for a, b in zip(bounds[:-1], bounds[1:])
    ] + [[t_max]])
    orders = _panel_orders(edges[:-1], params.tau_g, spec.order)
    taus, weights, starts = _panel_nodes(edges, params.tau_g, orders)
    _match_mass(weights, -math.expm1(-params.t_max_factor))
    return KernelNodes(taus, weights, edges, starts)


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
    flm, frm = f((0.5 * (a + m), 0.5 * (m + b)))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    err = abs(delta)  # a float for scalar integrands, which skip numpy's max
    if depth <= 0 or (err if isinstance(err, float) else float(err.max())) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adaptive_step(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adaptive_step(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def _adaptive_integral(f, bounds, rel_tol, *, vectorized=False):
    """Adaptive Simpson of a scalar or vector integrand over consecutive segments.

    ``f`` maps one lag to a value, or with ``vectorized`` a sequence of lags
    to a sequence of values; the rule asks for the new points of each step
    in one call. Integrands the rule cannot resolve, such as a field point
    on the past path, raise AdaptiveBudgetExceeded after _ADAPTIVE_BUDGET
    evaluations instead of recursing without end.
    """
    used = [0]

    def counted(xs):
        used[0] += len(xs)
        if used[0] > _ADAPTIVE_BUDGET:
            raise AdaptiveBudgetExceeded(
                f"adaptive Simpson: no convergence in {_ADAPTIVE_BUDGET} evaluations")
        return f(xs) if vectorized else tuple(map(f, xs))

    segs = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        fa, fm, fb = counted((a, 0.5 * (a + b), b))
        segs.append((a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb)))
    scale = float(np.max(np.abs(sum(seg[-1] for seg in segs))))
    tol = rel_tol * (scale if scale > 0.0 else 1.0) / len(segs)
    return sum(_adaptive_step(counted, *seg, tol, 48) for seg in segs)


def _tau_breakpoints(trajectory, t, params):
    return [t - s for s in trajectory.breakpoints_in(t - params.t_max, t)]


def _lab_path(path, s, which=None):
    return path(s)


def _naive(source, count=1, path=None):
    """(source, path, shifts, frame) of the naive form at ``count`` times: a lab path, no shift, no frame.

    A caller's ``path`` is taken to wind no faster than the trajectory.
    """
    traj = source.trajectory
    return source, partial(_lab_path, traj.position if path is None else path), np.zeros((count, 3)), None


def _framed(sources, ambient, times, params):
    """(source, path, shifts, frame) of each source seen from its free-fall frames matched at ``times``.

    ``path(s, which)`` is the source's path relative to the frame of
    times[which], and shifts[which] that frame's origin at its match time.
    Each source builds its frames for all times at once. A frame whose path
    enters the ambient guard raises SingularApproach for the earliest such
    time, and there for the first such source, as framing the times one by
    one would.
    """
    if params.tau_g == 0.0:  # no look-back: only the lab position at t matters
        return [_naive(src, len(times)) for src in sources]
    frames = [build_frames(src.trajectory, ambient, times, params.t_max) for src in sources]
    inside = [frame.inside_guard for frame in frames]
    if any(x.any() for x in inside):
        i, k = divmod(int(np.argmax(np.array(inside).T)), len(frames))
        raise frames[k].guard_error(i)
    return [(src, partial(relative_source_path, frame, src.trajectory), frame.match_origin, frame)
            for src, frame in zip(sources, frames)]


def _turn_rates(traj, frame, count):
    """Turn rate each of ``count`` node tables is built for: the trajectory's or, if faster, the frame's."""
    if frame is None:
        return [traj.turn_rate] * count
    return np.maximum(traj.turn_rate, frame.turn_rate)


def _at(framed, i):
    """The (source, path, shift) of each source at time index i of _framed."""
    return [(src, partial(path, which=i), shifts[i]) for src, path, shifts, _ in framed]


class _Table(NamedTuple):
    nodes: KernelNodes
    sizes: np.ndarray  # (P,), nodes per panel
    first: np.ndarray  # (P,), index of each panel's first node
    last: np.ndarray  # (P,), and of its last node
    edges: np.ndarray  # (P, 2), lag interval of each panel
    lo_ends: np.ndarray  # (P,), lag halfway between each panel's start and its first node
    hi_ends: np.ndarray  # (P,), and between its last node and its end


def _table(tables, params, breakpoints, turn_rate):
    """Node table for these breakpoints and turn rate, with its panels' end-point lags.

    ``tables`` holds one per (breakpoints, panel length), which fix the table.
    """
    key = (tuple(_clean_breakpoints(breakpoints, params.t_max)), _panel_length(params, turn_rate))
    if key not in tables:
        nodes = kernel_weights(params, breakpoints, turn_rate=turn_rate)
        taus, s = nodes.taus, nodes.starts
        first, last = s[:-1], s[1:] - 1
        lo, hi = nodes.edges[:-1], nodes.edges[1:]
        tables[key] = _Table(nodes, np.diff(s), first, last, np.column_stack([lo, hi]),
                             0.5 * (lo + taus[first]), 0.5 * (hi + taus[last]))
    return tables[key]


def _path_nodes(source, path, shifts, frame, times, params, tables):
    """Effective node masses of one source at each time, and the coarse panels they fill.

    The node at lag tau of times[i] sits at path(times[i] - tau, i) +
    shifts[i] and carries -G M times its kernel weight. The naive route
    passes the lab path, no shift and no frame; the framed route passes the
    frame-relative path, the frame origins and the frame, whose turn rate
    (_turn_rates) shortens the panels. One path call covers every
    node and panel end point of every time, and ``tables`` (see _table)
    shares node tables between times and sources. Returns, per time, node
    positions, weights and lags, then per panel its node count, its lag
    edges (P, 2), the length of the polyline through its nodes and two end
    points, and that polyline's longest step. The end points sit halfway
    between the panel's edges and its outermost nodes, on the panel's own
    side of any jump in the path.
    """
    count = len(times)
    coef = -G * source.mass
    if params.tau_g == 0.0:
        at = path(np.array(times), np.arange(count)) + shifts
        no_panels = np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros(0), np.zeros(0)
        return [(at[i:i + 1], np.array([coef]), np.zeros(1), *no_panels) for i in range(count)]
    tabs = [_table(tables, params, _tau_breakpoints(source.trajectory, t, params), rate)
            for t, rate in zip(times, _turn_rates(source.trajectory, frame, count))]
    ks, ps = [tab.nodes.taus.size for tab in tabs], [tab.sizes.size for tab in tabs]
    node_at, panel_at = [0, *accumulate(ks)], [0, *accumulate(ps)]
    k, p = node_at[-1], panel_at[-1]
    # every time's nodes, then every panel's first and last end points
    which = np.repeat(np.arange(3 * count) % count, ks + ps + ps)
    lags = np.concatenate([tab.nodes.taus for tab in tabs] + [tab.lo_ends for tab in tabs]
                          + [tab.hi_ends for tab in tabs])
    at = path(np.array(times)[which] - lags, which)  # one path call
    pts = at[:k]
    first = np.concatenate([tab.first + o for tab, o in zip(tabs, node_at)])
    last = np.concatenate([tab.last + o for tab, o in zip(tabs, node_at)])
    # polyline steps: node to node, then each panel's first end point to its
    # first node and its last node to its last end point
    d = np.concatenate([np.diff(pts, axis=0), pts[first] - at[k:k + p], at[k + p:] - pts[last]])
    steps = np.sqrt(np.einsum("ij,ij->i", d, d))
    steps[last[:-1]] = 0.0  # from one panel's last node to the next panel's first
    # drop the steps between times, so each time's panels sum as on their own
    inner = np.concatenate([steps[a:b - 1] for a, b in zip(node_at, node_at[1:])])
    ends = steps[k - 1:].reshape(2, p)
    at_panel = first - which[k:k + p]
    lengths = np.add.reduceat(inner, at_panel) + ends[0] + ends[1]
    gaps = np.maximum(np.maximum.reduceat(inner, at_panel), ends.max(axis=0))
    positions = pts + shifts[which[:k]]
    return [(positions[node_at[i]:node_at[i + 1]], coef * tab.nodes.weights, tab.nodes.taus,
             tab.sizes, tab.edges, lengths[panel_at[i]:panel_at[i + 1]], gaps[panel_at[i]:panel_at[i + 1]])
            for i, tab in enumerate(tabs)]


def _adaptive_point(framed, r, t, params):
    """Adaptive-Simpson (potential, field x, y, z) at one point, summed over sources.

    ``framed`` holds (source, path, shift) as _at gives it.
    The rule picks its own nodes per integrand, so it cross-checks the
    node-table route rather than sharing its errors. Each step's new lags go
    to the path in one call.
    """
    tau_g = params.tau_g
    eps = params.softening_eps
    total = np.zeros(4)
    for i, (src, path, shift) in enumerate(framed):

        def f(taus, mass=src.mass, path=path, rel=r - shift, i=i):
            taus = np.asarray(taus, dtype=float)
            u = rel - path(t - taus)
            d2 = np.einsum("kj,kj->k", u, u)
            d = np.sqrt(d2)
            if np.any(d <= eps):
                k = int(np.argmax(d <= eps))
                raise _guard_error(float(d[k]), t - float(taus[k]), eps, i)
            c = np.exp(-taus / tau_g) / tau_g * (-G * mass)
            return np.column_stack([c / d, (c / (d2 * d))[:, None] * u])

        bps = _clean_breakpoints(_tau_breakpoints(src.trajectory, t, params), params.t_max)
        total += _adaptive_integral(
            f, [0.0] + bps + [params.t_max], params.quadrature.rel_tol, vectorized=True
        )
    return total


@dataclass(frozen=True, eq=False)
class PreparedScene:
    """Sources reduced to weighted effective point masses at one evaluation time.

    In each source's free-fall frame the retarded position at lag tau is
    xi(t - tau); shifting back by the frame origin at t gives a lab-frame
    point whose instantaneous Newton kernel, weighted by the kernel node
    weight times -G M, contributes linearly to potential and field. A whole
    scene then evaluates as a plain N-body sum over these nodes.

    The nodes are the coarse tables, one per source, their coordinates held
    as (3, K) rows for the block sum. Coarse panel p holds nodes starts[p]
    up to starts[p + 1], and keeps what a block of points needs to split it
    near the past path: its lag edges, polyline length and longest polyline
    step, and which source's (path, shift, -G M) it samples.
    """

    coords: np.ndarray  # (3, K), node x, y and z, each contiguous
    weights: np.ndarray  # (K,), include the -G*M factor
    lags: np.ndarray  # (K,), kernel lag tau of each node
    n_nodes_per_source: tuple
    starts: np.ndarray  # (P + 1,), node offset of each coarse panel, then its end
    panel_edges: np.ndarray  # (P, 2), lag interval of each coarse panel
    panel_lengths: np.ndarray  # (P,), polyline length through end points and nodes
    panel_gaps: np.ndarray  # (P,), longest step of that polyline
    panel_sources: np.ndarray  # (P,), index into paths
    paths: tuple  # per source (path, shift, -G M)
    t: float
    params: KernelParams

    @property
    def positions(self):
        """Node positions (K, 3), a view of coords."""
        return self.coords.T


def _scene(parts, framed, t, params):
    """PreparedScene at time t from each source's _path_nodes at t and its _at view of _framed."""
    # the empty arrays keep a source-free scene well formed
    empty = (np.zeros((0, 3)), np.zeros(0), np.zeros(0), np.zeros(0, dtype=int),
             np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    positions, weights, lags, sizes, edges, lengths, gaps = (
        np.concatenate(p) for p in zip(*parts, empty))
    counts = tuple(len(p[1]) for p in parts)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    sources = np.repeat(np.arange(len(parts)), [len(p[4]) for p in parts])
    paths = tuple((path, shift, -G * src.mass) for src, path, shift in framed)
    coords = np.ascontiguousarray(positions.T)
    return PreparedScene(
        coords, weights, lags, counts, starts, edges, lengths, gaps, sources, paths, t, params
    )


def _scenes(framed, times, params):
    """One PreparedScene per time from _framed; equal node tables are built once."""
    tables = {}
    parts = [_path_nodes(*f, times, params, tables) for f in framed]
    return [_scene([p[i] for p in parts], _at(framed, i), t, params) for i, t in enumerate(times)]


def prepare_scenes(sources, ambient, times, params):
    """Collapse every source to its effective kernel-node masses at each of ``times``.

    Returns one PreparedScene per time. Each source's frames, node positions
    and panel polylines are computed for all times at once, and times and
    sources whose tables share breakpoints and panel length share one table.
    A scene is the same, bit for bit, whichever other times it was prepared
    with.
    """
    if isinstance(params.quadrature, AdaptiveSimpson) and params.tau_g > 0.0:
        raise ValueError("scene preparation needs a fixed node table; use GaussLegendre")
    times = [float(t) for t in times]
    if not times:
        return []
    return _scenes(_framed(sources, ambient, times, params), times, params)


def prepare_scene(sources, ambient, t, params):
    """Collapse every source to its effective kernel-node masses at time t: prepare_scenes at one time."""
    return prepare_scenes(sources, ambient, [t], params)[0]


def _split_counts(scene, r):
    """Equal sub-panels (b, P) each point needs per coarse panel, from its node distances r (b, K).

    d_p, the distance from the point to panel p's nearest node less half the
    longest step of the panel's polyline, bounds its distance to that
    stretch of path from below while the path keeps close to its polyline,
    which the turn-rate limit on panel length (kernel_weights) ensures.
    Gauss-Legendre converges like rho^(-2n), with rho set by the nearest
    complex singularity of 1/|r - x(t - tau)|; on such a panel it lies about
    d_p / speed away in lag. Sub-panels no longer than d_p along the path
    keep it two half-lengths away, rho >= 2 + sqrt(5) on a straight path;
    so the panel needs ceil(L_p / d_p) of them, at most MAX_SPLIT, and
    MAX_SPLIT when d_p <= 0.
    """
    if scene.panel_lengths.size == 0:
        return np.ones((r.shape[0], 0), dtype=int)
    near = np.minimum.reduceat(r, scene.starts[:-1], axis=1) - 0.5 * scene.panel_gaps
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.ceil(scene.panel_lengths / near)
    m[~(near > 0.0)] = MAX_SPLIT
    return np.minimum(np.maximum(m, 1.0), MAX_SPLIT).astype(int)


def _split_nodes(scene, m):
    """(panel, sub-node coords (3, k), weights, lags) per panel with m_p > 1.

    The sub-nodes come from the framed path the scene already holds, not
    from a new node table.
    """
    order = scene.params.quadrature.order
    out = []
    for p in np.flatnonzero(m > 1):
        path, shift, coef = scene.paths[scene.panel_sources[p]]
        edges = np.linspace(*scene.panel_edges[p], m[p] + 1)
        taus, weights, _ = _panel_nodes(edges, scene.params.tau_g, (order,) * m[p])
        coords = np.ascontiguousarray((path(scene.t - taus) + shift).T)
        out.append((p, coords, coef * weights, taus))
    return out


def _tile_rows(k):
    """Rows per tile of a block summed against k nodes: (rows, k) arrays of TILE_CELLS entries."""
    return max(TILE, TILE_CELLS // max(k, 1))


def _tile(pts, coords):
    """Differences d (3, rows, K), r^2 and r (rows, K) of a tile of points to nodes held as (3, K).

    Split coordinates keep each of x, y and z contiguous along the nodes, so
    every reduction of a tile runs along one row, pairwise and in cache.
    """
    d = pts.T[:, :, None] - coords[:, None, :]
    r2 = np.square(d).sum(axis=0)
    return d, r2, np.sqrt(r2)


def _tile_sums(inv, r2, d):
    """Potential (rows,) and field (rows, 3) of a tile from its terms inv = weight / r.

    Each is a pairwise sum along a row. Overwrites r2 and d.
    """
    f = np.divide(inv, r2, out=r2)
    return inv.sum(axis=1), np.multiply(d, f, out=d).sum(axis=2).T


def _eval_block(scene, pts):
    """Potential, field, guard mask and per-panel split counts of a prepared scene on one block.

    The block runs in tiles of _tile_rows(K) rows whose (rows, K) arrays
    stay in cache: each tile's distances to the coarse nodes give its guard
    mask, its split decision and its sums. A panel splits into the most
    sub-panels any point of the block needs (guarded points aside), and only
    the points that need a split trade the panel's coarse nodes for its
    sub-panel nodes; the others keep the coarse panel, which has converged
    for them. Each point reduces along its own row, so results are bitwise
    reproducible for any tiling. The sums are numpy's pairwise sums, whose
    rounding grows with log K, not K: shift fits amplify ulp noise by the
    probe-distance / displacement ratio.
    """
    eps = scene.params.softening_eps
    n = pts.shape[0]
    phi, grad = np.empty(n), np.empty((n, 3))
    singular = np.empty(n, dtype=bool)
    counts = np.ones((n, scene.panel_lengths.size), dtype=int)
    # a point farther than this from every node splits no panel (_split_counts);
    # the slack covers rounding, and the closer points get the exact test
    reach = np.max(scene.panel_lengths + 0.5 * scene.panel_gaps, initial=0.0) * (1.0 + 1e-9)
    starts = scene.starts
    step = _tile_rows(scene.coords.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            d, r2, r = _tile(pts[rows], scene.coords)
            nearest = r.min(axis=1, initial=math.inf)
            singular[rows] = hit = nearest <= eps
            inv = scene.weights / r
            close = ~(nearest >= reach) & ~hit
            if close.any():
                tile = counts[rows]
                tile[close] = _split_counts(scene, r[close])
                need = tile > 1
                for p in np.flatnonzero(need.any(axis=0)):
                    inv[need[:, p], starts[p]:starts[p + 1]] = 0.0
            phi[rows], grad[rows] = _tile_sums(inv, r2, d)
        m = counts.max(axis=0, initial=1)
        for p, coords, weights, _ in _split_nodes(scene, m):
            need = np.flatnonzero(counts[:, p] > 1)
            step = _tile_rows(coords.shape[1])
            for lo in range(0, need.size, step):
                rows = need[lo:lo + step]
                d, r2, r = _tile(pts[rows], coords)
                singular[rows] |= r.min(axis=1) <= eps
                tile_phi, tile_grad = _tile_sums(weights / r, r2, d)
                phi[rows] += tile_phi
                grad[rows] += tile_grad
    phi[singular] = np.nan
    grad[singular] = np.nan
    return phi, grad, singular, m


def _guard_hit(scene, pt, m):
    """SingularApproach for the node nearest ``pt`` among those _eval_block gave it.

    ``m`` is the block's split. The point traded a panel's coarse nodes for
    its sub-panel nodes where it needed the split and no coarse node guarded
    it; those coarse nodes stay candidates, since they all lie outside the
    guard radius that some evaluated node fell inside.
    """
    eps = scene.params.softening_eps
    r = _tile(pt[None, :], scene.coords)[2]
    need = (_split_counts(scene, r)[0] > 1) & ~np.any(r <= eps)
    sources = np.repeat(np.arange(len(scene.n_nodes_per_source)), scene.n_nodes_per_source)
    candidates = [(scene.coords, scene.lags, sources)] + [
        (coords, taus, np.full(taus.size, scene.panel_sources[p]))
        for p, coords, _, taus in _split_nodes(scene, m) if need[p]
    ]
    coords, lags, sources = (np.concatenate(c, axis=-1) for c in zip(*candidates))
    r = _tile(pt[None, :], coords)[2][0]
    k = int(np.argmin(r))
    return _guard_error(float(r[k]), scene.t - float(lags[k]), eps, int(sources[k]))


def _scene_values(scene, pts):
    """Potential (n,), field (n, 3) and the evaluated table of one prepared scene at points.

    The table is (nodes, panels, split panels) summed over sources. A guard
    hit raises SingularApproach describing the nearest node the first guarded
    point was evaluated with, sub-panel nodes included.
    """
    phi, grad, singular, m = _eval_block(scene, pts)
    if singular.any():
        raise _guard_hit(scene, pts[np.argmax(singular)], m)
    order = getattr(scene.params.quadrature, "order", 0)
    nodes = int(np.where(m > 1, m * order, np.diff(scene.starts)).sum())
    return phi, grad, (nodes, int(m.sum()), int(np.sum(m > 1)))


def _values(framed, points, times, params):
    """Per time, potential (n,), field (n, 3) and the evaluated table at that time's points.

    ``framed`` is as _framed returns it and ``points`` holds one (n, 3)
    array per time; one node table per source and time serves every point
    of that time, split near the path as _eval_block decides (see
    _scene_values). The table is all zero without a Gauss-Legendre kernel.
    """
    if isinstance(params.quadrature, AdaptiveSimpson) and params.tau_g > 0.0:
        out = [np.array([_adaptive_point(_at(framed, i), r, t, params) for r in pts]).reshape(-1, 4)
               for i, (t, pts) in enumerate(zip(times, points))]
        return [(o[:, 0], o[:, 1:], (0, 0, 0)) for o in out]
    return [_scene_values(scene, pts) for scene, pts in zip(_scenes(framed, times, params), points)]


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
    return float(_values([_naive(source, path=path)], [r[None, :]], [t], params)[0][0][0])


def _framed_point(source, ambient, r, t, params):
    r = as_vec3(r, "r")
    t = float(t)
    if params.tau_g == 0.0:
        return _instantaneous(source.mass, source.trajectory.position(t), r, params.softening_eps)
    phi, grad, _ = _values(_framed([source], ambient, [t], params), [r[None, :]], [t], params)[0]
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
    framed = _framed(sources, ambient, [t], params)
    return float(_values(framed, [as_vec3(r, "r")[None, :]], [t], params)[0][0][0])


def _adaptive_block(framed, t, params, pts):
    """_eval_block's contract for the adaptive scheme, one point at a time; no panels."""
    out = np.full((pts.shape[0], 4), np.nan)
    singular = np.zeros(pts.shape[0], dtype=bool)
    for i, r in enumerate(pts):
        try:
            out[i] = _adaptive_point(framed, r, t, params)
        except SingularApproach:
            singular[i] = True
    return out[:, 0], out[:, 1:], singular, np.zeros(0, dtype=int)


def scene_potential_fields(sources, ambient, points, times, params):
    """Potential and field of a scene on many points at each of ``times``.

    Returns one (phi (n,), grad (n,3), singular (n,) bool) per time. Points
    inside the guard radius of any effective node produce nan rows and a
    True mask entry instead of raising, so grid sweeps can report and
    continue. The scenes of all times are prepared in one batch
    (prepare_scenes), then each time's points run in blocks of CHUNK, one
    after another on the calling thread, so identical inputs give
    byte-identical outputs, and each time's rows are the same whichever
    other times share the call.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    times = [float(t) for t in times]
    if isinstance(params.quadrature, AdaptiveSimpson) and params.tau_g > 0.0:
        framed = _framed(sources, ambient, times, params)
        blocks = [partial(_adaptive_block, _at(framed, i), t, params) for i, t in enumerate(times)]
    else:
        blocks = [partial(_eval_block, scene) for scene in prepare_scenes(sources, ambient, times, params)]
    out = []
    for block in blocks:
        phi, grad = np.empty(pts.shape[0]), np.empty(pts.shape)
        singular = np.zeros(pts.shape[0], dtype=bool)
        for lo in range(0, pts.shape[0], CHUNK):
            rows = slice(lo, lo + CHUNK)
            phi[rows], grad[rows], singular[rows], _ = block(pts[rows])
        out.append((phi, grad, singular))
    return out


def scene_potential_field(sources, ambient, points, t, params, threads=None):
    """Potential and field of a scene on many points at one time: scene_potential_fields at time t.

    Returns (phi (n,), grad (n,3), singular (n,) bool). ``threads`` is
    ignored; it is accepted so that callers that still pass a thread count
    keep working.
    """
    return scene_potential_fields(sources, ambient, points, [t], params)[0]
