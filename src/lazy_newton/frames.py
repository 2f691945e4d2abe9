"""Ambient fields and co-moving free-fall frames.

The delayed-potential law is applied in a frame that falls freely with each
source: a pure translation (lab axes, no rotation) whose origin y(s) obeys
y..(s) = ambient(y(s)) and matches the source position and velocity at the
evaluation time t. This module prescribes the ambient field, splits source
acceleration into gravitational and non-gravitational parts, and builds the
frame's origin path over the look-back horizon.

Frames are immutable after construction and queries are pure, so they are
safe to share across threads.
"""

import math
from functools import cached_property

import numpy as np

from .constants import G
from .errors import SingularApproach
from .kinematics import _times, _unwrap, as_vec3

__all__ = [
    "AmbientField",
    "ZeroField",
    "UniformField",
    "PointMassField",
    "FreeFallFrame",
    "nongrav_accel",
    "build_frame",
    "build_frames",
    "relative_source_path",
]

# Maclaurin coefficients of the Stumpff functions, rows k = 9 .. 0 of
# (C, S) = sum (-z)^k / ((2k+2)!, (2k+3)!), used for |z| < 1 where the closed
# forms cancel. Ten terms leave a truncation error below 1e-18.
_SERIES = np.array([[(-1.0) ** k / math.factorial(2 * k + 2), (-1.0) ** k / math.factorial(2 * k + 3)]
                    for k in range(9, -1, -1)])[:, :, None]  # (10, 2, 1), broadcast over z
# Laguerre-Conway meets this step tolerance in at most 6 iterations on conics
# up to twice the escape speed; 1e-15 would sit below the roundoff floor.
_KEPLER_TOL = 1e-13
_KEPLER_ITERATIONS = 50
_ROUNDOFF = 8.0 * np.finfo(float).eps  # Kepler residual treated as converged, relative to its terms


def _stumpff(z):
    """Stumpff functions C(z) and S(z) of a float array z; each branch runs only if used."""
    c, s = np.empty_like(z), np.empty_like(z)
    near, ell = np.abs(z) < 1.0, z >= 1.0
    hyp = ~(near | ell)
    if near.any():
        zn = z[near]
        cs = np.zeros((2, zn.size))
        for coef in _SERIES:  # Horner, highest power first
            cs *= zn
            cs += coef
        c[near], s[near] = cs
    if ell.any():
        zp = z[ell]
        x = np.sqrt(zp)
        c[ell] = 2.0 * np.sin(0.5 * x) ** 2 / zp  # 1 - cos x without cancellation
        s[ell] = (x - np.sin(x)) / x**3
    if hyp.any():
        zm = -z[hyp]
        x = np.sqrt(zm)
        c[hyp] = 2.0 * np.sinh(0.5 * x) ** 2 / zm
        s[hyp] = (np.sinh(x) - x) / x**3
    return c, s


class AmbientField:
    """Background gravitational field the frame origin falls through."""

    def accel(self, x):
        """Field acceleration at point(s) x, shape (3,) or (n, 3)."""
        raise NotImplementedError


class ZeroField(AmbientField):
    """No ambient gravity."""

    def accel(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)


class UniformField(AmbientField):
    """Homogeneous field of constant acceleration ``g``."""

    def __init__(self, g):
        self.g = as_vec3(g, "g")

    def accel(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.g.copy()
        return np.broadcast_to(self.g, x.shape).copy()


class PointMassField(AmbientField):
    """Inverse-square field of one external point mass.

    ``softening`` is a guard radius, not a smoothing length: any evaluation
    within it, and any free-fall frame whose path enters it, raises
    SingularApproach, because the supported scenarios never probe a mass
    interior and a near-singular query means the setup is broken.
    """

    def __init__(self, position, mass, softening=1e-9):
        self.position = as_vec3(position, "position")
        self.mass = float(mass)
        self.softening = float(softening)
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.softening <= 0.0:
            raise ValueError("softening must be positive")

    def accel(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        d = pts - self.position
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        if np.any(r <= self.softening):
            raise SingularApproach(
                f"field evaluated {r.min():.3e} m from the external mass "
                f"(guard radius {self.softening:.3e} m)",
                distance=float(r.min()),
            )
        out = (-G * self.mass / r**3)[:, None] * d
        return out[0] if single else out


def nongrav_accel(traj, field, s):
    """Non-gravitational part of the source's acceleration at time(s) s."""
    return traj.acceleration(s) - field.accel(traj.position(s))


def _rowdot(a, b):
    """Dot products of the rows of (n, 3) arrays, each rounded as ``a[i] @ b[i]`` is."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _universal(chi, r_t, alpha, sigma):
    """C, S, the terms of sqrt(mu) * (s - match time), r and dr/dchi at anomaly chi.

    Every argument is an array over lags, the conic elements those of each lag's match time.
    """
    beta = 1.0 - alpha * r_t
    z = alpha * chi * chi
    c, s = _stumpff(z)
    terms = (sigma * chi * chi * c, beta * chi**3 * s, r_t * chi)
    r = sigma * chi * (1.0 - z * s) + beta * chi * chi * c + r_t
    dr = sigma * (1.0 - z * c) + beta * chi * (1.0 - z * s)
    return c, s, terms, r, dr


def _solve(chi, target, r_t, alpha, sigma):
    """Universal anomaly at each lag from the starter chi, by Laguerre-Conway (n = 5).

    A lag stops iterating once its step is below _KEPLER_TOL of the anomaly
    or its Kepler residual is at the roundoff floor, so its value does not
    depend on the other lags of the batch. Raises ArithmeticError if any lag
    is still moving after _KEPLER_ITERATIONS steps.
    """
    out = np.empty_like(chi)
    todo = np.arange(chi.size)
    for _ in range(_KEPLER_ITERATIONS):
        _, _, terms, r, dr = _universal(chi, r_t, alpha, sigma)
        f = sum(terms) - target
        # near the periapsis of an eccentric orbit the terms cancel, and
        # roundoff in f alone moves chi by more than _KEPLER_TOL
        floor = np.abs(f) <= _ROUNDOFF * (sum(map(np.abs, terms)) + np.abs(target))
        step = 5.0 * f / (r + np.sqrt(np.abs(16.0 * r * r - 20.0 * f * dr)))
        chi = chi - step
        out[todo] = chi
        going = ~(floor | (np.abs(step) <= _KEPLER_TOL * np.abs(chi)))
        if not going.any():
            return out
        if not going.all():
            todo, chi, target, r_t, alpha, sigma = (a[going] for a in (todo, chi, target, r_t, alpha, sigma))
    raise ArithmeticError(f"Kepler propagation did not converge in {_KEPLER_ITERATIONS} iterations")


class FreeFallFrame:
    """Origin paths y(s) of non-rotating frames in free fall with a source, one per match time.

    The frame matched at time t covers s in [t - horizon, t] with
    y.. = ambient(y) and terminal data y(t) = source position, y.(t) = source
    velocity. Zero and uniform fields give the parabola of acceleration
    ``g``; a point mass gives the Kepler conic, propagated exactly with the
    universal variable (Danby, Fundamentals of Celestial Mechanics, 1988) and
    a capped Laguerre-Conway iteration (Conway, Celestial Mechanics 39, 1986)
    that raises ArithmeticError if it does not converge.

    ``match_times`` is a scalar or a 1-D array. Each query carries ``which``,
    the index of the match time whose frame it asks (it may be omitted when
    there is only one), so the queries of every match time solve in one batch.
    A scalar match time gives scalar-shaped answers, as a trajectory does.
    """

    def __init__(self, match_times, horizon, field, p_t, v_t, *, g=None):
        self.match_times, self._scalar = _times(match_times)
        self.horizon = float(horizon)
        self.field = field
        self._p_t = np.asarray(p_t).reshape(-1, 3)
        self._v_t = np.asarray(v_t).reshape(-1, 3)
        self._g = g
        if g is None:  # Kepler conics about field.position, one per match time
            self._mu = mu = G * field.mass
            self._sqrt_mu = sqrt_mu = math.sqrt(mu)
            self._rel_t = rel = self._p_t - field.position
            # a match point on the mass has no conic; inside_guard marks it, _framed refuses it
            with np.errstate(divide="ignore", invalid="ignore"):
                r_t = np.sqrt(_rowdot(rel, rel))
                alpha = 2.0 / r_t - _rowdot(self._v_t, self._v_t) / mu  # 1 / semi-major axis
                sigma = _rowdot(rel, self._v_t) / sqrt_mu
                self._h2 = np.sum(np.cross(rel, self._v_t) ** 2, axis=1)  # |angular momentum|^2
                e = np.sqrt(np.maximum(0.0, 1.0 - alpha * self._h2 / mu))
                k = np.sqrt(np.abs(alpha))
                sk, ar = sigma * k, 1.0 - alpha * r_t
            # per match time: eccentric (ellipse) or hyperbolic anomaly at the
            # match time (0 on a parabola), mean motion, mean anomaly there, period
            per_time = []
            for a, kk, ee, sk_, ar_ in zip(*(x.tolist() for x in (alpha, k, e, sk, ar))):
                motion = sqrt_mu * kk**3
                if a > 0.0:
                    anomaly = math.atan2(sk_, ar_)
                    per_time.append((anomaly, motion, anomaly - ee * math.sin(anomaly),
                                     2.0 * math.pi / motion))
                else:
                    anomaly = math.asinh(sk_ / ee) if ee > 0.0 else math.nan
                    per_time.append((anomaly, motion, ee * math.sinh(anomaly) - anomaly, math.inf))
            anomaly, motion, mean, period = np.array(per_time, dtype=float).reshape(-1, 4).T
            # one row per element, so a query gathers all of them in one step
            self._el = np.array([r_t, alpha, sigma, e, k, anomaly, motion, mean, period])
        # edge slack for quadrature nodes landing a rounding error outside
        self._slack = 1e-9 * np.maximum(np.maximum(1.0, np.abs(self.match_times)), self.horizon)

    @property
    def turn_rate(self):
        """Fastest angular rate of each match time's origin path over its window, in rad/s.

        That is h / r^2 at the closest approach to the mass inside the
        window: the periapsis if one falls there, else the nearer window end.
        A parabola frame has none (0); see Trajectory.turn_rate.
        """
        if self._g is not None:
            return _unwrap(np.zeros(self.match_times.size), self._scalar)
        r = self._closest_approach[0]
        with np.errstate(divide="ignore", invalid="ignore"):  # a radial path (h = 0) may reach r = 0
            rates = np.sqrt(self._h2) / (r * r)
        return _unwrap(np.where(self._h2 > 0.0, rates, 0.0), self._scalar)

    @property
    def match_origin(self):
        """Origin y at each match time: the source position there by construction, with no Kepler solve."""
        return _unwrap(self._p_t.copy(), self._scalar)

    @property
    def inside_guard(self):
        """Whether each match time's path comes within the point mass's guard radius, (T,) bool."""
        if self._g is not None:
            return np.zeros(self.match_times.size, dtype=bool)
        return self._closest_approach[0] <= self.field.softening

    def guard_error(self, i):
        """The SingularApproach that refuses the frame of match time i."""
        distance, when = (float(a[i]) for a in self._closest_approach)
        return SingularApproach(f"free-fall path came within {distance:.3e} m of the external "
                                f"mass near s = {when:.6g} s", distance=distance, when=when)

    def _analytic(self, s, derivative, which, dt):
        if derivative == 0:
            return self._p_t[which] + dt[:, None] * self._v_t[which] + 0.5 * (dt * dt)[:, None] * self._g
        if derivative == 1:
            return self._v_t[which] + dt[:, None] * self._g
        return np.broadcast_to(self._g, (s.size, 3)).copy()

    def _kepler(self, s, derivative, which, dt):
        r_t, alpha, sigma, e, k, anomaly, motion, mean, period = self._el[:, which]
        ell = alpha > 0.0
        if ell.any():  # the ellipse repeats: propagate at most half a period
            dt[ell] -= period[ell] * np.round(dt[ell] / period[ell])
        # Kepler starter: E ~ M + e sin M, or e sinh H ~ M (no overshoot into cosh overflow)
        mean = motion * dt + mean
        with np.errstate(divide="ignore", invalid="ignore"):  # each lag keeps its own conic's branch
            guess = np.where(ell, (mean + e * np.sin(mean) - anomaly) / k,
                             np.where(alpha < 0.0, (np.arcsinh(mean / e) - anomaly) / k,
                                      self._sqrt_mu * dt / r_t))
        chi = _solve(guess, self._sqrt_mu * dt, r_t, alpha, sigma)
        c, s_, _, r, _ = _universal(chi, r_t, alpha, sigma)
        rel_t, v_t = self._rel_t[which], self._v_t[which]
        if derivative == 1:
            f_dot = self._sqrt_mu / (r * r_t) * chi * (alpha * chi * chi * s_ - 1.0)
            g_dot = 1.0 - chi * chi * c / r
            return f_dot[:, None] * rel_t + g_dot[:, None] * v_t
        f = 1.0 - chi * chi * c / r_t
        g = dt - chi**3 * s_ / self._sqrt_mu
        rel = f[:, None] * rel_t + g[:, None] * v_t
        if derivative == 0:
            return rel + self.field.position
        return (-self._mu / r**3)[:, None] * rel

    @cached_property
    def _periapsis(self):
        """Lag back from each match time to its last periapsis, and the periapsis distance q."""
        r_t, alpha, sigma, e, k, anomaly, _, _, period = self._el
        # universal anomaly of the periapsis nearest each match time, then the
        # lag back to the last periapsis (% inf sends a future one to inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            chi_p = np.where(alpha != 0.0, -anomaly / k, -sigma)
            lag = -sum(_universal(chi_p, r_t, alpha, sigma)[2]) / self._sqrt_mu % period
        return lag, self._h2 / (self._mu * (1.0 + e))

    @cached_property
    def _closest_approach(self):
        """Smallest distance to the mass over each window, and when it occurs: two (T,) arrays.

        A match point already inside the guard radius reports its own
        distance; build_frame and the evaluator's _framed refuse it unpropagated.
        """
        r_t = self._el[0]
        t = self.match_times
        lag, distance = self._periapsis
        distance, when = distance.copy(), t - lag
        inside = r_t <= self.field.softening
        distance[inside], when[inside] = r_t[inside], t[inside]
        # no periapsis in the window: the nearer window end, all starts in one solve
        ends = np.flatnonzero(~inside & ~(lag <= self.horizon))
        if ends.size:
            start = t[ends] - self.horizon
            rel = self.origin(start, ends) - self.field.position
            r_start = np.sqrt(_rowdot(rel, rel))
            nearer = r_start <= r_t[ends]
            distance[ends] = np.where(nearer, r_start, r_t[ends])
            when[ends] = np.where(nearer, start, t[ends])
        return distance, when

    def _eval(self, s, derivative, which):
        s, scalar = _times(s)
        if which is None:
            if self.match_times.size != 1:
                raise ValueError("a frame over several match times needs ``which`` for each query")
            which = 0
        if not isinstance(which, np.ndarray):
            which = np.full(s.shape, which)
        t = self.match_times[which]
        lo = t - self.horizon
        slack = self._slack[which]
        outside = (s < lo - slack) | (s > t + slack)
        if outside.any():
            j = int(np.argmax(outside))
            raise ValueError(f"frame queried outside [{lo[j]:.6g}, {t[j]:.6g}]")
        s = np.clip(s, lo, t)
        dt = s - t
        if self._g is None:
            out = self._kepler(s, derivative, which, dt)
        else:
            out = self._analytic(s, derivative, which, dt)
        return _unwrap(out, scalar)

    def origin(self, s, which=None):
        """Frame origin y(s), shape (3,) or (n, 3); ``which`` indexes the match time of each s."""
        return self._eval(s, 0, which)

    def origin_velocity(self, s, which=None):
        return self._eval(s, 1, which)

    def origin_acceleration(self, s, which=None):
        return self._eval(s, 2, which)


def build_frames(trajs, field, times, horizon):
    """Free-fall frames of every trajectory of ``trajs`` in ``field`` at every match time, as one FreeFallFrame.

    With S trajectories, trajectory k matched at times[i] is the frame's slot
    i * S + k: time after time and, within a time, trajectory after
    trajectory, the order of the evaluator's node pass. One window-start
    solve (FreeFallFrame.inside_guard, turn_rate) serves every source of a
    scene. Each slot's frame is the same, bit for bit, as with any other
    trajectories or times beside it. ZeroField, UniformField and
    PointMassField are supported; any other ambient raises TypeError.
    ``times`` is a scalar or a 1-D array; a scalar and one trajectory give
    scalar-shaped answers. Nothing is refused here: inside_guard marks the
    slots whose conic comes within the guard radius anywhere in
    [t - horizon, t].
    """
    horizon = float(horizon)
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    shape = len(trajs), np.size(times), 3
    p_t = np.array([traj.position(times) for traj in trajs], dtype=float).reshape(shape).swapaxes(0, 1)
    v_t = np.array([traj.velocity(times) for traj in trajs], dtype=float).reshape(shape).swapaxes(0, 1)
    slots = times if len(trajs) == 1 else np.repeat(times, len(trajs))
    if isinstance(field, ZeroField):
        return FreeFallFrame(slots, horizon, field, p_t, v_t, g=np.zeros(3))
    if isinstance(field, UniformField):
        return FreeFallFrame(slots, horizon, field, p_t, v_t, g=field.g.copy())
    if not isinstance(field, PointMassField):
        raise TypeError(f"no free-fall frame for ambient {type(field).__name__}")
    return FreeFallFrame(slots, horizon, field, p_t, v_t)


def build_frame(traj, field, t, horizon):
    """Construct the free-fall frame of ``traj`` in ``field`` matched at time t.

    The one-time, one-trajectory case of build_frames. A point-mass frame
    whose conic comes within the guard radius anywhere in [t - horizon, t],
    between samples included, raises SingularApproach with the closest
    distance and its time.
    """
    frame = build_frames([traj], field, float(t), horizon)
    if frame.inside_guard[0]:
        raise frame.guard_error(0)
    return frame


def relative_source_path(frame, traj, s, which=None):
    """Source position relative to the frame origin: position(s) - y(s)."""
    return traj.position(s) - frame.origin(s, which)
