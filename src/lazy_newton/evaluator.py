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
from functools import cache, lru_cache, partial, reduce
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

# points per evaluation block of a time. A panel splits for at most one block
# of points (_values), so a fixed size keeps a given map's bytes fixed.
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


@lru_cache(maxsize=64)
def _composite_rule(orders):
    """Rules of the given orders (a tuple) laid end to end on [-1, 1]: nodes, weights, orders, offsets.

    Panel i holds nodes starts[i] up to starts[i + 1]. Each node is looked up
    in one table of the distinct orders' rules. The result is cached, since
    a table's orders repeat wherever its breakpoints do, and so do those of
    a batch of tables at the same lags in units of tau_g.
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


def _panel_nodes(lo, hi, tau_g, orders):
    """Lags, kernel weights and panel offsets of an orders[i]-point rule on each [lo[i], hi[i]].

    ``orders`` is a tuple, one order per panel. Lags and weights are flat
    (K,); panel i holds nodes starts[i] up to starts[i + 1]. The
    density e^(-tau/tau_g) is taken as e^(-mid) e^(-half x), so a node's own
    rounding stays out of the exponent; at 35 tau_g that rounding alone
    moved a panel's weight sum by 4 ulp.
    """
    x, w, orders, starts = _composite_rule(orders)
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
    The weights are ranked (argsort, descending) only for a tie at the top
    or once the single-ulp steps run.
    """
    miss = weights.sum() - mass
    if miss == 0.0 or abs(miss) > 16.0 * math.ulp(mass):
        return
    top = int(np.argmax(weights))
    if np.count_nonzero(weights == weights[top]) > 1:
        top = int(np.argsort(weights)[-1])  # argsort ranks ties its own way
    raw = weights[top]
    weights[top] -= miss
    order = None
    j = 0
    for _ in range(64):
        last, miss = miss, weights.sum() - mass
        if miss == 0.0:
            return
        if order is None:  # rank the weights as they were before the first step
            weights[top], stepped = raw, weights[top]
            order = np.argsort(weights)[::-1]
            weights[top] = stepped
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


def _table_key(params, breakpoints, turn_rate):
    """(breakpoints, panel length): what fixes a node table."""
    return tuple(_clean_breakpoints(breakpoints, params.t_max)), _panel_length(params, turn_rate)


def _kernel_tables(params, keys):
    """The node tables of many keys (_table_key) in one pass.

    Returns flat lags and weights, each panel's lag edges lo and hi, each
    panel's node offset ``starts`` (P + 1,) and each table's panel offset
    ``at`` (len(keys) + 1,): table j holds panels at[j] up to at[j + 1]. The
    panel edges of every table come from one linspace formula, the orders
    and nodes from one call each, and each table's weights meet the kernel
    mass on their own (_match_mass); every step is elementwise, so a table
    is the same, bit for bit, whichever others share its pass.
    """
    t_max = params.t_max
    segments, at = [], [0]
    for bps, length in keys:
        bounds = (0.0, *bps, t_max)
        panels = 0
        for a, b in zip(bounds, bounds[1:]):
            n = max(1, math.ceil((b - a) / length - 1e-12))
            segments.append((a, (b - a) / n, n))
            panels += n
        at.append(at[-1] + panels)
    a, step, n = (np.array(c) for c in zip(*segments))
    # each segment split evenly into n panels, at np.linspace(a, b, n + 1)'s points
    lo = (np.arange(at[-1]) - np.repeat(np.cumsum(n) - n, n)) * np.repeat(step, n) + np.repeat(a, n)
    at = np.array(at)
    hi = np.append(lo[1:], t_max)
    hi[at[1:] - 1] = t_max
    orders = _panel_orders(lo, params.tau_g, params.quadrature.order)
    taus, weights, starts = _panel_nodes(lo, hi, params.tau_g, orders)
    mass = -math.expm1(-params.t_max_factor)
    for p, q in zip(starts[at[:-1]], starts[at[1:]]):
        _match_mass(weights[p:q], mass)
    return taus, weights, lo, hi, starts, at


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
    kernel at all (instantaneous limit). This is _kernel_tables for one key.
    """
    if params.tau_g == 0.0:
        raise ValueError("tau_g = 0 is the instantaneous limit; it has no kernel nodes")
    if not isinstance(params.quadrature, GaussLegendre):
        raise ValueError("kernel_weights needs the fixed-node GaussLegendre scheme")
    taus, weights, lo, _, starts, _ = _kernel_tables(params, [_table_key(params, breakpoints, turn_rate)])
    return KernelNodes(taus, weights, np.append(lo, params.t_max), starts)


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


def _adaptive_integral(f, bounds, rel_tol):
    """Adaptive Simpson of an integrand over consecutive segments, refined level by level.

    ``f`` maps an array of lags to their values, (n,) or (n, c); each level
    asks for the new points of all its unconverged intervals in one call.
    An interval is accepted once its Richardson error, the largest over the
    components, is within 15 times its tolerance, or at depth 48; its halves
    share its tolerance. The tree of intervals and the order of the
    additions (each pair of halves, then the segments left to right) are
    those of the usual recursive rule, so evaluating by levels changes no
    bit. Integrands the rule cannot resolve, such as a field point on the
    past path, raise AdaptiveBudgetExceeded after _ADAPTIVE_BUDGET
    evaluations instead of refining without end. Returns a float for a
    scalar integrand, else a (c,) array.
    """
    used = 0

    def charge(n):  # before the n points are laid out, so a spent budget allocates nothing more
        nonlocal used
        used += n
        if used > _ADAPTIVE_BUDGET:
            raise AdaptiveBudgetExceeded(
                f"adaptive Simpson: no convergence in {_ADAPTIVE_BUDGET} evaluations")

    a, b = np.array(bounds[:-1], dtype=float), np.array(bounds[1:], dtype=float)
    charge(3 * a.size)
    x = np.column_stack([a, 0.5 * (a + b), b])
    fx = np.asarray(f(x.ravel()), dtype=float)
    scalar = fx.ndim == 1
    # each interval's lags a, m, b and the values there, (n, 3, 1 + c)
    ends = np.concatenate([x[:, :, None], fx.reshape(a.size, 3, -1)], axis=2)
    whole = ((b - a) / 6.0)[:, None] * (ends[:, 0, 1:] + 4.0 * ends[:, 1, 1:] + ends[:, 2, 1:])
    scale = float(np.max(np.abs(sum(whole))))
    tol = rel_tol * (scale if scale > 0.0 else 1.0) / a.size
    # of an interval's lags a, m, b and quarter points, those of its halves
    halves_at = np.array([0, 3, 1, 1, 4, 2])
    levels = []  # per level, each interval's accepted value and whether it was refined instead
    charge(2 * a.size)
    for depth in range(49):
        x = ends[:, :, 0]
        q = 0.5 * (x[:, :2] + x[:, 1:])  # quarter points
        fq = np.asarray(f(q.ravel()), dtype=float).reshape(len(x), 2, -1)
        # Simpson on the left and right halves, (n, 2, c)
        halves = ends[:, :2, 1:] + 4.0 * fq + ends[:, 1:, 1:]
        halves *= ((x[:, 1:] - x[:, :2]) / 6.0)[:, :, None]
        both = halves[:, 0] + halves[:, 1]
        delta = both - whole
        refine = ~(np.abs(delta).max(axis=1) <= 15.0 * tol)
        levels.append((both + delta / 15.0, refine))
        if depth == 48 or not refine.any():
            refine[:] = False
            break
        charge(4 * np.count_nonzero(refine))  # the next level's quarter points
        # each refined interval's left then right half
        five = np.concatenate([ends, np.concatenate([q[:, :, None], fq], axis=2)], axis=1)
        ends = five[refine][:, halves_at].reshape(-1, 3, five.shape[2])
        whole = halves[refine].reshape(-1, fq.shape[2])
        tol *= 0.5
    total = None
    for value, refine in reversed(levels):
        if total is not None:
            value[refine] = total[0::2] + total[1::2]
        total = value
    total = sum(total)  # the segments in order, as the recursive rule adds them
    return float(total[0]) if scalar else total


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
    taus: np.ndarray  # (K,)
    weights: np.ndarray  # (K,)
    sizes: np.ndarray  # (P,), nodes per panel
    first: np.ndarray  # (P,), index of each panel's first node
    last: np.ndarray  # (P,), and of its last node
    edges: np.ndarray  # (P, 2), lag interval of each panel
    lo_ends: np.ndarray  # (P,), lag halfway between each panel's start and its first node
    hi_ends: np.ndarray  # (P,), and between its last node and its end


def _tables(cache, params, keys):
    """The node table of each key (_table_key), with its panels' end-point lags.

    ``cache`` holds one table per key; the keys it lacks are built in one
    _kernel_tables pass and added.
    """
    new = [key for key in dict.fromkeys(keys) if key not in cache]
    if new:
        taus, weights, lo, hi, starts, at = _kernel_tables(params, new)
        first, last = starts[:-1], starts[1:] - 1
        sizes, edges = np.diff(starts), np.column_stack([lo, hi])
        lo_ends, hi_ends = 0.5 * (lo + taus[first]), 0.5 * (hi + taus[last])
        for key, p, q in zip(new, at[:-1], at[1:]):
            n, e = starts[p], starts[q]
            cache[key] = _Table(taus[n:e], weights[n:e], sizes[p:q], first[p:q] - n, last[p:q] - n,
                                edges[p:q], lo_ends[p:q], hi_ends[p:q])
    return [cache[key] for key in keys]


class _Nodes(NamedTuple):
    """One source's effective nodes and coarse panels at every time of a batch, flat.

    Time i holds nodes node_at[i] up to node_at[i + 1] and panels
    panel_at[i] up to panel_at[i + 1].
    """

    positions: np.ndarray  # (K, 3)
    weights: np.ndarray  # (K,), include the -G*M factor
    lags: np.ndarray  # (K,)
    node_at: np.ndarray  # (T + 1,)
    sizes: np.ndarray  # (P,), nodes per panel
    edges: np.ndarray  # (P, 2), lag interval of each panel
    lengths: np.ndarray  # (P,), polyline length through each panel's end points and nodes
    gaps: np.ndarray  # (P,), longest step of that polyline
    panel_at: np.ndarray  # (T + 1,)


def _path_nodes(source, path, shifts, times, tabs):
    """Effective node masses of one source at each time, and the coarse panels they fill (_Nodes).

    The node at lag tau of times[i] sits at path(times[i] - tau, i) +
    shifts[i] and carries -G M times its kernel weight from tabs[i]; the
    naive route passes the lab path and no shift, the framed route the
    frame-relative path and the frame origins. One path call covers every
    node and panel end point of every time. Each panel keeps its node count,
    its lag edges (P, 2), the length of the polyline through its nodes and
    two end points, and that polyline's longest step. The end points sit
    halfway between the panel's edges and its outermost nodes, on the
    panel's own side of any jump in the path. ``tabs`` None (tau_g = 0)
    gives each time one node, the source itself, and no panels.
    """
    count = len(times)
    coef = -G * source.mass
    if tabs is None:
        at = path(np.array(times), np.arange(count)) + shifts
        return _Nodes(at, np.full(count, coef), np.zeros(count), np.arange(count + 1), np.zeros(0, dtype=int),
                      np.zeros((0, 2)), np.zeros(0), np.zeros(0), np.zeros(count + 1, dtype=int))
    ks, ps = [tab.taus.size for tab in tabs], [tab.sizes.size for tab in tabs]
    node_at, panel_at = np.cumsum([0, *ks]), np.cumsum([0, *ps])
    k, p = node_at[-1], panel_at[-1]
    # every time's nodes, then every panel's first and last end points
    which = np.repeat(np.arange(3 * count) % count, ks + ps + ps)
    lags = np.concatenate([tab.taus for tab in tabs] + [tab.lo_ends for tab in tabs]
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
    inner = np.delete(steps[:k], node_at[1:] - 1)
    ends = steps[k - 1:].reshape(2, p)
    at_panel = first - which[k:k + p]
    lengths = np.add.reduceat(inner, at_panel) + ends[0] + ends[1]
    gaps = np.maximum(np.maximum.reduceat(inner, at_panel), ends.max(axis=0))
    return _Nodes(pts + shifts[which[:k]], coef * np.concatenate([tab.weights for tab in tabs]), lags[:k],
                  node_at, np.concatenate([tab.sizes for tab in tabs]),
                  np.concatenate([tab.edges for tab in tabs]), lengths, gaps, panel_at)


def _source_nodes(framed, times, params, cache):
    """_path_nodes of each source of _framed at every time, all their node tables from one _tables call."""
    if params.tau_g == 0.0:
        return [_path_nodes(*f[:3], times, None) for f in framed]
    keys = [_table_key(params, _tau_breakpoints(src.trajectory, t, params), rate)
            for src, _, _, frame in framed
            for t, rate in zip(times, _turn_rates(src.trajectory, frame, len(times)))]
    tabs = _tables(cache, params, keys)
    count = len(times)
    return [_path_nodes(*f[:3], times, tabs[i * count:(i + 1) * count]) for i, f in enumerate(framed)]


def _adaptive_point(framed, r, t, params):
    """Adaptive-Simpson (potential, field x, y, z) at one point, summed over sources.

    ``framed`` holds (source, path, shift) as _at gives it.
    The rule picks its own nodes per integrand, so it cross-checks the
    node-table route rather than sharing its errors. Each level's new lags
    go to the path in one call.
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


def _scene(parts, framed, i, t, params):
    """PreparedScene at times[i] = t from each source's _Nodes and _framed."""
    nodes = [(p.node_at[i], p.node_at[i + 1]) for p in parts]
    panels = [(p.panel_at[i], p.panel_at[i + 1]) for p in parts]

    def joined(name, at, empty):  # a scene of no sources keeps its arrays well formed
        return np.concatenate([getattr(p, name)[a:b] for p, (a, b) in zip(parts, at)] or [empty])

    counts = [int(b - a) for a, b in nodes]
    sizes = joined("sizes", panels, np.zeros(0, dtype=int))
    starts = np.concatenate([[0], np.cumsum(sizes)])
    sources = np.repeat(np.arange(len(parts)), [b - a for a, b in panels])
    paths = tuple((path, shift, -G * src.mass) for src, path, shift in _at(framed, i))
    coords = np.ascontiguousarray(joined("positions", nodes, np.zeros((0, 3))).T)
    return PreparedScene(
        coords, joined("weights", nodes, np.zeros(0)), joined("lags", nodes, np.zeros(0)), tuple(counts),
        starts, joined("edges", panels, np.zeros((0, 2))), joined("lengths", panels, np.zeros(0)),
        joined("gaps", panels, np.zeros(0)), sources, paths, t, params
    )


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
    framed = _framed(sources, ambient, times, params)
    parts = _source_nodes(framed, times, params, {})
    return [_scene(parts, framed, i, t, params) for i, t in enumerate(times)]


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
        taus, weights, _ = _panel_nodes(edges[:-1], edges[1:], scene.params.tau_g, (order,) * m[p])
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
    Nodes held as (3, rows, K) give each row its own; they must be
    C-contiguous too, since the differences take their layout.
    """
    d = pts.T[:, :, None] - (coords[:, None, :] if coords.ndim == 2 else coords)
    r2 = np.square(d).sum(axis=0)
    return d, r2, np.sqrt(r2)


def _coarse_tile(pts, coords, weights, reach, eps):
    """_tile to coarse nodes, the terms weight / r, and which rows hit the guard or come within reach.

    A row farther than ``reach`` from every node splits no panel
    (_split_counts); the others need the exact test.
    """
    d, r2, r = _tile(pts, coords)
    nearest = r.min(axis=1, initial=math.inf)
    hit = nearest <= eps
    return d, r2, r, weights / r, hit, ~(nearest >= reach) & ~hit


def _tile_sums(inv, r2, d):
    """Potential (rows,) and field (rows, 3) of a tile from its terms inv = weight / r.

    Each is a pairwise sum along a row. Overwrites r2 and d.
    """
    f = np.divide(inv, r2, out=r2)
    return inv.sum(axis=1), np.multiply(d, f, out=d).sum(axis=2).T


def _reach(lengths, gaps, at):
    """Per run of panels at[i] up to at[i + 1], the distance beyond which a point splits none of them.

    See _split_counts; the slack covers rounding. Every run holds a panel,
    or none does (the Newtonian limit, a scene of no sources): then 0.
    """
    if lengths.size == 0:
        return np.zeros(len(at) - 1)
    return np.maximum.reduceat(lengths + 0.5 * gaps, at[:-1]) * (1.0 + 1e-9)


def _guard_hit(scene, pt, m):
    """SingularApproach for the node nearest ``pt`` among those _values summed it against.

    ``m`` is the split of the point's block. The point traded a panel's
    coarse nodes for its sub-panel nodes where it needed the split and no
    coarse node guarded it; those coarse nodes stay candidates, since they
    all lie outside the guard radius that some evaluated node fell inside.
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


def _split_sums(scene, counts, pts, phi, grad, singular):
    """Add one time's sub-panel sums to its rows, in place, and nan its guarded rows; returns its guard error.

    ``counts`` (n, P) holds each row's split counts (_split_counts), all 1
    for a guarded row. Each CHUNK block of rows splits a panel into the most
    sub-panels any of its rows needs, so a given map's bytes stay fixed, and
    only the rows that need the split sum its sub-panel nodes; the others
    keep the coarse panel, which has converged for them. The guard error is
    that of the first guarded row (_guard_hit), or None.
    """
    eps = scene.params.softening_eps
    error = None
    for lo in range(0, len(pts), CHUNK):
        block = counts[lo:lo + CHUNK]
        m = block.max(axis=0, initial=1)
        for p, coords, weights, _ in _split_nodes(scene, m):
            need = lo + np.flatnonzero(block[:, p] > 1)
            step = _tile_rows(coords.shape[1])
            for s in range(0, need.size, step):
                rows = need[s:s + step]
                d, r2, r = _tile(pts[rows], coords)
                singular[rows] |= r.min(axis=1) <= eps
                tile_phi, tile_grad = _tile_sums(weights / r, r2, d)
                phi[rows] += tile_phi
                grad[rows] += tile_grad
        hit = singular[lo:lo + CHUNK]
        if error is None and hit.any():
            error = _guard_hit(scene, pts[lo + np.argmax(hit)], m)
    phi[singular] = np.nan
    grad[singular] = np.nan
    return error


def _adaptive_values(framed, pts, t, params):
    """_values at one time by the adaptive scheme, one point at a time, guarded points masked; no panels."""
    out = np.full((pts.shape[0], 4), np.nan)
    singular = np.zeros(pts.shape[0], dtype=bool)
    error = None
    for k, r in enumerate(pts):
        try:
            out[k] = _adaptive_point(framed, r, t, params)
        except SingularApproach as exc:
            singular[k] = True
            error = error or exc
    return out[:, 0], out[:, 1:], singular, error, (0, 0, 0)


def _values(framed, points, times, params, tables=None):
    """Per time: potential (n,), field (n, 3), guard mask (n,), guard error and evaluated table.

    ``framed`` is as _framed returns it and ``points`` holds one (n, 3)
    array per time; one node table per source and time serves every point
    of that time. Times with equal node counts per source are stacked, and
    one pass of tiles of _tile_rows(K) rows, whose (rows, K) arrays stay in
    cache, sums each point row against its own time's coarse nodes once: a
    tile of one time's rows broadcasts that time's (3, K) nodes, a tile
    that mixes times gathers (3, rows, K). The same pass masks the rows
    that hit the guard and gives each row that comes within reach of a
    panel its split counts (_split_counts) from its own time's panels, on
    that time's PreparedScene, built only then; such a row trades each
    panel it splits for the panel's sub-panel nodes (_split_sums). Each
    row reduces along its own nodes only, pairwise, so every value is its
    time's alone, bit for bit, for any stacking or tiling; the pairwise
    rounding grows with log K, not K, which matters since shift fits
    amplify ulp noise by the probe-distance / displacement ratio.

    Guarded rows are nan. The guard error is None or the SingularApproach
    of the time's first guarded point, naming the nearest node it was
    summed against (_guard_hit); _checked raises the earliest. The table
    (nodes, panels, split panels) is summed over sources, split panels at
    their largest split, and all zero without a Gauss-Legendre kernel.
    ``tables`` keeps node tables between calls (see _tables).
    """
    if isinstance(params.quadrature, AdaptiveSimpson) and params.tau_g > 0.0:
        return [_adaptive_values(_at(framed, i), pts, t, params)
                for i, (t, pts) in enumerate(zip(times, points))]
    parts = _source_nodes(framed, times, params, {} if tables is None else tables)
    eps, count = params.softening_eps, len(times)
    # (3, K) of every node of every time, source after source
    coords = np.concatenate([p.positions for p in parts] or [np.zeros((0, 3))]).T.copy()
    weights = np.concatenate([p.weights for p in parts] or [np.zeros(0)])
    offsets = accumulate([len(p.weights) for p in parts], initial=0)
    node_at = [(p.node_at + o).tolist() for p, o in zip(parts, offsets)]
    panel_at = [p.panel_at.tolist() for p in parts]
    reach = reduce(np.maximum, [_reach(p.lengths, p.gaps, p.panel_at) for p in parts], np.zeros(count))
    order = getattr(params.quadrature, "order", 0)
    scenes = {}

    def scene(i):
        if i not in scenes:
            scenes[i] = _scene(parts, framed, i, times[i], params)
        return scenes[i]

    stacks = {}
    for i in range(count):
        stacks.setdefault(tuple(at[i + 1] - at[i] for at in node_at), []).append(i)
    out = [None] * count
    with np.errstate(divide="ignore", invalid="ignore"):
        for key, idx in stacks.items():
            k = sum(key)
            # (g, K) node indices, source after source as in a prepared scene
            nodes = [np.array([at[i] for i in idx])[:, None] + np.arange(n) for at, n in zip(node_at, key)]
            nodes = np.concatenate(nodes or [np.zeros((len(idx), 0), dtype=int)], axis=1)
            pts = np.concatenate([points[i] for i in idx])
            lengths = [len(points[i]) for i in idx]
            row_at = list(accumulate(lengths, initial=0))
            row_time = np.repeat(np.arange(len(idx)), lengths)
            near = reach[idx]
            n = pts.shape[0]
            phi, grad, singular = np.empty(n), np.empty((n, 3)), np.empty(n, dtype=bool)
            counts = {}  # stack index of a time with a close row: its rows' split counts (rows, P)
            step = _tile_rows(k)
            for lo in range(0, n, step):
                j = row_time[lo:lo + step]
                at = j[0] if j[0] == j[-1] else j  # one time's rows broadcast its (3, K) nodes
                d, r2, r, inv, singular[lo:lo + step], close = _coarse_tile(
                    pts[lo:lo + step], coords.take(nodes[at], axis=1), weights[nodes[at]], near[at], eps)
                for jj in np.unique(j[close]).tolist() if close.any() else ():  # each time's close rows
                    own = np.flatnonzero(close & (j == jj))
                    sc = scene(idx[jj])
                    if jj not in counts:
                        counts[jj] = np.ones((lengths[jj], sc.starts.size - 1), dtype=int)
                    counts[jj][lo + own - row_at[jj]] = need = _split_counts(sc, r[own])
                    for p in np.flatnonzero((need > 1).any(axis=0)):  # trade split panels for sub-panels
                        inv[own[need[:, p] > 1], sc.starts[p]:sc.starts[p + 1]] = 0.0
                phi[lo:lo + step], grad[lo:lo + step] = _tile_sums(inv, r2, d)
            odd = counts.keys() | set(row_time[singular].tolist())
            for jj, (i, a, b) in enumerate(zip(idx, row_at, row_at[1:])):
                error, table = None, (k, sum(at[i + 1] - at[i] for at in panel_at), 0)
                if jj in odd:
                    sc = scene(i)
                    c = counts[jj] if jj in counts else np.ones((b - a, sc.starts.size - 1), dtype=int)
                    error = _split_sums(sc, c, pts[a:b], phi[a:b], grad[a:b], singular[a:b])
                    m = c.max(axis=0, initial=1)
                    split = m > 1
                    nodes_used = k + int((m * order - np.diff(sc.starts))[split].sum())
                    table = (nodes_used, int(m.sum()), int(split.sum()))
                out[i] = phi[a:b], grad[a:b], singular[a:b], error, table
    return out


def _checked(out):
    """(potential, field, table) of each time of _values' output; the earliest time's guard error raises."""
    for *_, error, _ in out:
        if error is not None:
            raise error
    return [(phi, grad, table) for phi, grad, _, _, table in out]


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
    return float(_checked(_values([_naive(source, path=path)], [r[None, :]], [t], params))[0][0][0])


def _framed_point(source, ambient, r, t, params):
    r = as_vec3(r, "r")
    t = float(t)
    if params.tau_g == 0.0:
        return _instantaneous(source.mass, source.trajectory.position(t), r, params.softening_eps)
    phi, grad, _ = _checked(_values(_framed([source], ambient, [t], params), [r[None, :]], [t], params))[0]
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
    return float(_checked(_values(framed, [as_vec3(r, "r")[None, :]], [t], params))[0][0][0])


def scene_potential_fields(sources, ambient, points, times, params):
    """Potential and field of a scene on many points at each of ``times``.

    Returns one (phi (n,), grad (n,3), singular (n,) bool) per time. Points
    inside the guard radius of any effective node produce nan rows and a
    True mask entry instead of raising, so grid sweeps can report and
    continue. Every time is framed in one batch (_framed) and summed by
    _values, the route single-point calls and reports take, on the calling
    thread, so identical inputs give byte-identical outputs, and each
    time's rows are the same whichever other times share the call.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    times = [float(t) for t in times]
    if not times:
        return []
    out = _values(_framed(sources, ambient, times, params), [pts] * len(times), times, params)
    return [(phi, grad, singular) for phi, grad, singular, _, _ in out]


def scene_potential_field(sources, ambient, points, t, params, threads=None):
    """Potential and field of a scene on many points at one time: scene_potential_fields at time t.

    Returns (phi (n,), grad (n,3), singular (n,) bool). ``threads`` is
    ignored; it is accepted so that callers that still pass a thread count
    keep working.
    """
    return scene_potential_fields(sources, ambient, points, [t], params)[0]
