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
from .errors import SingularApproach
from .frames import build_frames
from .kinematics import as_vec3

__all__ = [
    "GaussLegendre",
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
# of points (_split_sums), so a fixed size keeps a given map's bytes fixed.
CHUNK = 512
# fewest rows of a block summed together (see _tile_rows): low enough that the
# tiles of split sub-panels, thousands of nodes long, stay near TILE_CELLS,
# while coarse tables of up to 512 nodes keep TILE_CELLS // K rows
TILE = 4
TILE_CELLS = 8192  # (rows, K) entries of a tile: one float64 array of 64 KiB
MAX_SPLIT = 100  # most equal sub-panels one coarse panel splits into near the past path
MAX_TURN = 4.0  # radians of a winding path (Trajectory.turn_rate) one panel may span
# 2 ln(2 + sqrt 5), correctly rounded: the exponent each Gauss-Legendre node
# gains on a panel whose nearest singularity sits at rho = 2 + sqrt 5 (_panel_orders)
_NODE_GAIN = 2.8872709503576206


@dataclass(frozen=True)
class GaussLegendre:
    """Composite Gauss-Legendre rule, one panel per kernel segment.

    Segments never exceed ``max_segment_tau_g`` kernel time constants: the
    default 5 gives 8 panels over the 40 tau_g window. A path that winds (an
    orbit) gets panels of at most MAX_TURN radians of it, down to
    1 / MAX_SPLIT of the default length (_panel_length). Each panel's
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
    quadrature: GaussLegendre = field(default_factory=GaussLegendre)

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
        if not isinstance(self.quadrature, GaussLegendre):
            raise ValueError("quadrature must be GaussLegendre")

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
    _match_mass). Panel i holds nodes starts[i] up to starts[i + 1], sizes[i]
    of them, and spans the lags edges[i] to edges[i + 1], the row panels[i].
    ends[:, i] are the lags halfway between those edges and the panel's
    outermost nodes, where the evaluator samples the path (_scene_nodes).
    """

    taus: np.ndarray
    weights: np.ndarray
    edges: np.ndarray  # (P + 1,)
    starts: np.ndarray  # (P + 1,), node offset of each panel, then the node count
    sizes: np.ndarray  # (P,), nodes per panel
    panels: np.ndarray  # (P, 2), lag interval of each panel
    ends: np.ndarray  # (2, P), end-point lags of each panel

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


def _tables(cache, params, keys):
    """The node table (KernelNodes) of each key (_table_key).

    ``cache`` holds one table per key; the keys it lacks are built in one
    _kernel_tables pass, their panel arrays cut from that pass's, and added.
    """
    new = [key for key in dict.fromkeys(keys) if key not in cache]
    if new:
        taus, weights, lo, hi, starts, at = _kernel_tables(params, new)
        sizes, panels = np.diff(starts), np.column_stack([lo, hi])
        ends = np.array([0.5 * (lo + taus[starts[:-1]]), 0.5 * (hi + taus[starts[1:] - 1])])
        for key, p, q in zip(new, at[:-1], at[1:]):
            n, e = starts[p], starts[q]
            cache[key] = KernelNodes(taus[n:e], weights[n:e], np.concatenate([lo[p:q], hi[q - 1:q]]),
                                     starts[p:q + 1] - n, sizes[p:q], panels[p:q], ends[:, p:q])
    return [cache[key] for key in keys]


def kernel_weights(params, breakpoints=(), *, turn_rate=0.0):
    """Node/weight table covering [0, t_max], split at the given kernel lags.

    Panels span at most ``max_segment_tau_g`` time constants and at most
    MAX_TURN radians of a path winding at ``turn_rate`` (rad/s), but never
    less than 1 / MAX_SPLIT of the former. A 32-point panel over many turns
    of an orbit aliases it: at omega tau_g = 25, 5 tau_g panels missed a
    field point 64 radii off the orbit by 3e-5 relative. Each panel's order
    follows from its start lag (_panel_orders). tau_g = 0 has no kernel at
    all (instantaneous limit). This is _tables for one key.
    """
    if params.tau_g == 0.0:
        raise ValueError("tau_g = 0 is the instantaneous limit; it has no kernel nodes")
    return _tables({}, params, [_table_key(params, breakpoints, turn_rate)])[0]


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


def _tau_breakpoints(trajectory, t, params):
    return [t - s for s in trajectory.breakpoints_in(t - params.t_max, t)]


def _slot_path(positions, count, origin, s, slot):
    """Lab position at s of the source of each slot k * count + i, less origin(s, slot) unless origin is None.

    ``positions`` holds each source's lab path; ``slot`` is one slot or an
    array like s.
    """
    if len(positions) == 1:
        at = positions[0](s)
    elif np.ndim(slot) == 0:
        at = positions[slot // count](s)
    else:
        k = slot // count
        at = np.empty((s.size, 3))
        for j, position in enumerate(positions):
            own = k == j
            at[own] = position(s[own])
    return at if origin is None else at - origin(s, slot)


def _naive(sources, count=1, path=None):
    """(sources, path, shifts, turn rates) of the naive form at ``count`` times: lab paths, no shift.

    Slots are laid out as in _framed. A caller's ``path`` replaces a lone
    source's trajectory and is taken to wind no faster than it.
    """
    positions = [src.trajectory.position for src in sources] if path is None else [path]
    rates = np.array([src.trajectory.turn_rate for src in sources]).repeat(count)
    return sources, partial(_slot_path, positions, count, None), np.zeros((rates.size, 3)), rates


def _framed(sources, ambient, times, params):
    """(sources, path, shifts, turn rates) of a scene seen from its free-fall frames matched at ``times``.

    One build_frames call frames every source at every time: source k at
    times[i] is slot k * T + i of one FreeFallFrame, so one window-start
    solve gives every guard verdict and turn rate, and one ``path(s, slot)``
    call, the slot's source path relative to its frame, covers any mix of
    slots. shifts[slot] is that frame's origin at its match time and
    rates[slot] the turn rate of the slot's node table: the trajectory's or,
    if faster, the frame's. A frame whose path enters the ambient guard
    raises SingularApproach for the earliest such time, and there for the
    first such source, as framing the times and sources one by one would.
    """
    if params.tau_g == 0.0:  # no look-back: only the lab position at t matters
        return _naive(sources, len(times))
    count = len(times)
    frame = build_frames([src.trajectory for src in sources], ambient, times, params.t_max)
    inside = frame.inside_guard
    if inside.any():
        i, k = divmod(int(np.argmax(inside.reshape(-1, count).T)), len(sources))
        raise frame.guard_error(k * count + i)
    own = np.array([src.trajectory.turn_rate for src in sources]).repeat(count)
    path = partial(_slot_path, [src.trajectory.position for src in sources], count, frame.origin)
    return sources, path, frame.match_origin, np.maximum(own, frame.turn_rate)


class _Nodes(NamedTuple):
    """A scene's effective nodes and coarse panels at every time of a batch, flat.

    The batch runs time after time and, within a time, source after source,
    as a PreparedScene lays them out: time i holds nodes node_at[i] up to
    node_at[i + 1] and panels panel_at[i] up to panel_at[i + 1]. It keeps
    the framed paths, times and params it was sampled from, so a panel can
    be split from it alone (_split_nodes).
    """

    coords: np.ndarray  # (3, K), node x, y and z, each contiguous
    weights: np.ndarray  # (K,), include the -G*M factor
    lags: np.ndarray  # (K,)
    counts: list  # per time, nodes per source
    node_at: list  # (T + 1,)
    starts: np.ndarray  # (P + 1,), node offset of each panel, then K
    edges: np.ndarray  # (P, 2), lag interval of each panel
    lengths: np.ndarray  # (P,), polyline length through each panel's end points and nodes
    gaps: np.ndarray  # (P,), longest step of that polyline
    sources: np.ndarray  # (P,), source index of each panel
    panel_at: list  # (T + 1,)
    framed: tuple  # as _framed returns it
    times: list  # (T,)
    params: KernelParams


def _scene_nodes(framed, times, params, cache):
    """Effective node masses of every source at every time, and the coarse panels they fill (_Nodes).

    Entry j = i * S + k of the batch is source k at times[i], the slot
    k * T + i of ``framed`` (_framed). The node at lag tau of an entry sits
    at path(times[i] - tau, slot) + shifts[slot] and carries -G M times its
    kernel weight from the slot's node table; the tables of every entry come
    from one _tables call, and one path call covers every node and panel
    end point of every entry. Each panel keeps its lag edges (P, 2), the
    length of the polyline through its nodes and two end points, and that
    polyline's longest step. The end points sit halfway between the panel's
    edges and its outermost nodes, on the panel's own side of any jump in
    the path. tau_g = 0 gives each entry one node, the source itself, and
    no panels.
    """
    sources, path, shifts, rates = framed
    count, n = len(times), len(sources)
    entries = np.arange(count * n)
    slot = entries if n == 1 or count == 1 else entries % n * count + entries // n
    when = np.array(times).repeat(n)
    coefs = np.array([-G * src.mass for src in sources] * count)
    if params.tau_g == 0.0 or not n:
        at = path(when, slot) + shifts[slot]
        return _Nodes(np.ascontiguousarray(at.T), coefs, np.zeros(entries.size), [[1] * n] * count,
                      [i * n for i in range(count + 1)], np.zeros(1, dtype=int), np.zeros((0, 2)), np.zeros(0),
                      np.zeros(0), np.zeros(0, dtype=int), [0] * (count + 1), framed, times, params)
    rate = rates[slot].tolist()
    keys = [_table_key(params, _tau_breakpoints(src.trajectory, t, params), rate[i * n + k])
            for i, t in enumerate(times) for k, src in enumerate(sources)]
    tabs = _tables(cache, params, keys)
    ks, ps = [tab.taus.size for tab in tabs], [tab.sizes.size for tab in tabs]
    node_at = np.array([0, *ks]).cumsum()
    k = node_at[-1]
    starts = np.concatenate([[0], np.concatenate([tab.sizes for tab in tabs]).cumsum()])
    p = starts.size - 1
    # every entry's nodes, then every panel's first and last end points
    which = np.repeat(np.arange(3 * entries.size) % entries.size, ks + ps + ps)
    end_lags = np.concatenate([tab.ends for tab in tabs], axis=1)  # (2, P): first end points, then last
    lags = np.concatenate([tab.taus for tab in tabs] + [end_lags.ravel()])
    at = path(when[which] - lags, slot[which])  # one path call
    pts = at[:k]
    first, last = starts[:-1], starts[1:] - 1
    # polyline steps: node to node, then each panel's first end point to its
    # first node and its last node to its last end point
    d = np.concatenate([np.diff(pts, axis=0), pts[first] - at[k:k + p], at[k + p:] - pts[last]])
    steps = np.sqrt(np.einsum("ij,ij->i", d, d))
    steps[last[:-1]] = 0.0  # from one panel's last node to the next panel's first
    # drop the steps between entries, so each entry's panels sum as on their own
    inner = np.delete(steps[:k], node_at[1:] - 1)
    ends = steps[k - 1:].reshape(2, p)
    at_panel = first - which[k:k + p]
    lengths = np.add.reduceat(inner, at_panel) + ends[0] + ends[1]
    gaps = np.maximum(np.maximum.reduceat(inner, at_panel), ends.max(axis=0))
    return _Nodes(np.ascontiguousarray((pts + shifts[slot[which[:k]]]).T),
                  coefs.repeat(ks) * np.concatenate([tab.weights for tab in tabs]), lags[:k],
                  [ks[i:i + n] for i in range(0, entries.size, n)], node_at.tolist()[::n], starts,
                  np.concatenate([tab.panels for tab in tabs]), lengths, gaps, (entries % n).repeat(ps),
                  list(accumulate(ps, initial=0))[::n], framed, times, params)


@dataclass(frozen=True, eq=False)
class PreparedScene:
    """Sources reduced to weighted effective point masses at one evaluation time.

    In each source's free-fall frame the retarded position at lag tau is
    xi(t - tau); shifting back by the frame origin at t gives a lab-frame
    point whose instantaneous Newton kernel, weighted by the kernel node
    weight times -G M, contributes linearly to potential and field. A whole
    scene then evaluates as a plain N-body sum over these nodes.

    The nodes are the coarse tables, one per source, their coordinates held
    as (3, K) rows for the block sum; coarse panel p holds nodes starts[p]
    up to starts[p + 1]. A scene is one time's slice of a node pass
    (_scene_nodes), for callers that want the nodes themselves; evaluation
    reads the pass, and plans its near-path splits from it.
    """

    coords: np.ndarray  # (3, K), node x, y and z, each contiguous
    weights: np.ndarray  # (K,), include the -G*M factor
    lags: np.ndarray  # (K,), kernel lag tau of each node
    n_nodes_per_source: tuple
    starts: np.ndarray  # (P + 1,), node offset of each coarse panel, then its end
    t: float
    params: KernelParams

    @property
    def positions(self):
        """Node positions (K, 3), a view of coords."""
        return self.coords.T


def prepare_scenes(sources, ambient, times, params):
    """Collapse every source to its effective kernel-node masses at each of ``times``.

    Returns one PreparedScene per time, each a slice of one node pass
    (_scene_nodes): every source's frames, node positions and panel
    polylines are computed for all times at once, and times and sources
    whose tables share breakpoints and panel length share one table. A scene
    is the same, bit for bit, whichever other times it was prepared with.
    """
    times = [float(t) for t in times]
    if not times:
        return []
    nodes = _scene_nodes(_framed(sources, ambient, times, params), times, params, {})
    scenes = []
    for i, t in enumerate(times):
        a, b = nodes.node_at[i], nodes.node_at[i + 1]
        scenes.append(PreparedScene(np.ascontiguousarray(nodes.coords[:, a:b]), nodes.weights[a:b], nodes.lags[a:b],
                                    tuple(nodes.counts[i]), _panel_starts(nodes, i), t, params))
    return scenes


def prepare_scene(sources, ambient, t, params):
    """Collapse every source to its effective kernel-node masses at time t: prepare_scenes at one time."""
    return prepare_scenes(sources, ambient, [t], params)[0]


def _panel_starts(nodes, i):
    """Node offset (P + 1,) of each coarse panel of time i within that time's nodes, then its end."""
    starts = nodes.starts[nodes.panel_at[i]:nodes.panel_at[i + 1] + 1]
    return starts - starts[0]


def _split_counts(nodes, i, r):
    """Equal sub-panels (b, P) each point needs per coarse panel of time i, from its node distances r (b, K).

    ``nodes`` is a node pass (_Nodes) and r runs over time i's nodes. d_p,
    the distance from the point to panel p's nearest node less half the
    longest step of the panel's polyline, bounds its distance to that
    stretch of path from below while the path keeps close to its polyline,
    which the turn-rate limit on panel length (_panel_length) ensures.
    Gauss-Legendre converges like rho^(-2n), with rho set by the nearest
    complex singularity of 1/|r - x(t - tau)|; on such a panel it lies about
    d_p / speed away in lag. Sub-panels no longer than d_p along the path
    keep it two half-lengths away, rho >= 2 + sqrt(5) on a straight path;
    so the panel needs ceil(L_p / d_p) of them, at most MAX_SPLIT, and
    MAX_SPLIT when d_p <= 0.
    """
    p, q = nodes.panel_at[i], nodes.panel_at[i + 1]
    if p == q:
        return np.ones((r.shape[0], 0), dtype=int)
    near = np.minimum.reduceat(r, _panel_starts(nodes, i)[:-1], axis=1) - 0.5 * nodes.gaps[p:q]
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.ceil(nodes.lengths[p:q] / near)
    m[~(near > 0.0)] = MAX_SPLIT
    return np.minimum(np.maximum(m, 1.0), MAX_SPLIT).astype(int)


def _split_nodes(nodes, i, m):
    """(panel, sub-node coords (3, k), weights, lags) per panel of time i with m_p > 1.

    The sub-nodes come from the framed path the node pass was sampled from,
    not from a new node table.
    """
    sources, path, shifts, _ = nodes.framed
    params, t = nodes.params, nodes.times[i]
    order, first = params.quadrature.order, nodes.panel_at[i]
    out = []
    for p in np.flatnonzero(m > 1):
        k = nodes.sources[first + p]
        slot = k * len(nodes.times) + i
        edges = np.linspace(*nodes.edges[first + p], m[p] + 1)
        taus, weights, _ = _panel_nodes(edges[:-1], edges[1:], params.tau_g, (order,) * m[p])
        coords = np.ascontiguousarray((path(t - taus, slot) + shifts[slot]).T)
        out.append((p, coords, -G * sources[k].mass * weights, taus))
    return out


def _tile_rows(k):
    """Rows per tile of a block summed against k nodes: (rows, k) arrays of TILE_CELLS entries."""
    return max(TILE, TILE_CELLS // max(k, 1))


def _tile(pts, coords):
    """Differences d (3, rows, K), r^2 and r (rows, K) of a tile of points to nodes held as (3, K).

    Split coordinates keep each of x, y and z contiguous along the nodes, so
    every reduction of a tile runs along one row, pairwise and in cache, as
    the differences are written C-contiguous whatever the nodes' strides.
    Nodes held as (3, rows, K) give each row its own.
    """
    d = np.subtract(pts.T[:, :, None], coords[:, None, :] if coords.ndim == 2 else coords,
                    out=np.empty((3, len(pts), coords.shape[-1])))
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


def _split_sums(nodes, i, counts, pts, phi, grad, singular):
    """Add time i's sub-panel sums to its rows, in place, and nan its guarded rows.

    Returns the guard error and the time's table. ``counts`` (n, P) is the
    split plan of the rows pts (_split_counts), all 1 for a guarded row.
    Each CHUNK block of rows splits a panel into the most sub-panels any of
    its rows needs, so a given map's bytes stay fixed, and only the rows
    that need the split sum its sub-panel nodes; the others keep the coarse
    panel, which has converged for them. Each block's sub-panel node sets
    are built once: the sums read them, and so does the guard. The guard
    error is that of the first guarded row, naming the nearest node it was
    summed against: one of the time's coarse nodes (those of a panel it
    split all lie outside the guard radius that some evaluated node fell
    inside) or of the sub-panels it took; None if no row is guarded. The
    table (nodes, panels, split panels) counts split panels at their
    largest split.
    """
    eps, order = nodes.params.softening_eps, nodes.params.quadrature.order
    a, b = nodes.node_at[i], nodes.node_at[i + 1]
    error = None
    for lo in range(0, len(pts), CHUNK):
        block = counts[lo:lo + CHUNK]
        splits = _split_nodes(nodes, i, block.max(axis=0, initial=1))
        for p, coords, weights, _ in splits:
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
            row = int(np.argmax(hit))
            source = np.repeat(np.arange(len(nodes.counts[i])), nodes.counts[i])
            candidates = [(nodes.coords[:, a:b], nodes.lags[a:b], source)] + [
                (coords, taus, np.full(taus.size, nodes.sources[nodes.panel_at[i] + p]))
                for p, coords, _, taus in splits if block[row, p] > 1
            ]
            coords, lags, source = (np.concatenate(c, axis=-1) for c in zip(*candidates))
            r = _tile(pts[lo + row][None, :], coords)[2][0]
            k = int(np.argmin(r))
            error = _guard_error(float(r[k]), nodes.times[i] - float(lags[k]), eps, int(source[k]))
    phi[singular] = np.nan
    grad[singular] = np.nan
    m = counts.max(axis=0, initial=1)
    split = m > 1
    extra = (m * order - np.diff(_panel_starts(nodes, i)))[split].sum()
    return error, (b - a + int(extra), int(m.sum()), int(split.sum()))


def _values(framed, points, times, params, tables=None):
    """Per time: potential (n,), field (n, 3), guard mask (n,), guard error and evaluated table.

    ``framed`` is as _framed returns it and ``points`` holds one (n, 3)
    array per time. One node pass (_scene_nodes) lays out every time's
    nodes as one contiguous range. Times with equal node counts are
    stacked, and one pass of tiles of _tile_rows(K) rows, whose (rows, K)
    arrays stay in cache, sums each point row against its own time's coarse
    nodes once: a tile of one time's rows broadcasts that time's (3, K)
    nodes, a tile that mixes times gathers (3, rows, K). The same pass
    masks the rows that hit the guard and gives each row that comes within
    reach of a panel its split counts (_split_counts), planned from its own
    time's panels in the node pass; such a row trades each panel it splits
    for the panel's sub-panel nodes (_split_sums), which runs only for a
    time with a split or a guarded row. Each row reduces along its own
    nodes only, pairwise, so every value is its time's alone, bit for bit,
    for any stacking or tiling; the pairwise rounding grows with log K,
    not K, which matters since shift fits amplify ulp noise by the
    probe-distance / displacement ratio.

    Guarded rows are nan. The guard error is None or the SingularApproach
    of the time's first guarded point, naming the nearest node it was
    summed against (_split_sums); _checked raises the earliest. The table
    (nodes, panels, split panels) is summed over sources, split panels at
    their largest split. ``tables`` keeps node tables between calls (see
    _tables).
    """
    nodes = _scene_nodes(framed, times, params, {} if tables is None else tables)
    eps, count = params.softening_eps, len(times)
    node_at, panel_at = nodes.node_at, nodes.panel_at
    reach = _reach(nodes.lengths, nodes.gaps, nodes.panel_at)
    stacks = {}
    for i in range(count):
        stacks.setdefault(node_at[i + 1] - node_at[i], []).append(i)
    out = [None] * count
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, idx in stacks.items():
            first = np.array([node_at[i] for i in idx])  # each time's first node
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
                one = j[0] == j[-1]  # one time's rows broadcast its (3, K) nodes
                at = j[0] if one else j
                cols = slice(first[at], first[at] + k) if one else first[at][:, None] + np.arange(k)
                d, r2, r, inv, singular[lo:lo + step], close = _coarse_tile(
                    pts[lo:lo + step], nodes.coords[:, cols], nodes.weights[cols], near[at], eps)
                for jj in np.unique(j[close]).tolist() if close.any() else ():  # each time's close rows
                    own = np.flatnonzero(close & (j == jj))
                    i = idx[jj]
                    if jj not in counts:
                        counts[jj] = np.ones((lengths[jj], panel_at[i + 1] - panel_at[i]), dtype=int)
                    counts[jj][lo + own - row_at[jj]] = need = _split_counts(nodes, i, r[own])
                    starts = _panel_starts(nodes, i)
                    for p in np.flatnonzero((need > 1).any(axis=0)):  # trade split panels for sub-panels
                        inv[own[need[:, p] > 1], starts[p]:starts[p + 1]] = 0.0
                phi[lo:lo + step], grad[lo:lo + step] = _tile_sums(inv, r2, d)
            odd = counts.keys() | set(row_time[singular].tolist())
            for jj, (i, a, b) in enumerate(zip(idx, row_at, row_at[1:])):
                error, table = None, (k, panel_at[i + 1] - panel_at[i], 0)
                if jj in odd:
                    c = counts[jj] if jj in counts else np.ones((b - a, panel_at[i + 1] - panel_at[i]), dtype=int)
                    error, table = _split_sums(nodes, i, c, pts[a:b], phi[a:b], grad[a:b], singular[a:b])
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
    return float(_checked(_values(_naive([source], path=path), [r[None, :]], [t], params))[0][0][0])


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
    time's rows are the same whichever other times share the call. A
    non-finite point raises ValueError, as single-point calls do (as_vec3).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        raise ValueError(f"points must be finite, got {pts[bad][0].tolist()} at row {int(np.argmax(bad))}")
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
