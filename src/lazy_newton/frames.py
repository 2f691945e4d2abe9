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


class FreeFallFrame:
    """Origin path y(s) of a non-rotating frame in free fall with a source.

    Covers s in [match_time - horizon, match_time] with y.. = ambient(y) and
    terminal data y(t) = source position, y.(t) = source velocity. Zero and
    uniform fields give the parabola of acceleration ``g``; a point mass gives
    the Kepler conic, propagated exactly with the universal variable (Danby,
    Fundamentals of Celestial Mechanics, 1988) and a capped Laguerre-Conway
    iteration (Conway, Celestial Mechanics 39, 1986) that raises
    ArithmeticError if it does not converge.
    """

    def __init__(self, match_time, horizon, field, p_t, v_t, *, g=None):
        self.match_time = float(match_time)
        self.horizon = float(horizon)
        self.field = field
        self._p_t = p_t
        self._v_t = v_t
        self._g = g
        if g is None:  # Kepler conic about field.position
            self._mu = G * field.mass
            self._sqrt_mu = math.sqrt(self._mu)
            self._rel_t = p_t - field.position
            self._r_t = float(np.linalg.norm(self._rel_t))
            self._alpha = 2.0 / self._r_t - float(v_t @ v_t) / self._mu  # 1 / semi-major axis
            self._sigma = float(self._rel_t @ v_t) / self._sqrt_mu
            self._h2 = float(np.sum(np.cross(self._rel_t, v_t) ** 2))  # |angular momentum|^2
            self._e = math.sqrt(max(0.0, 1.0 - self._alpha * self._h2 / self._mu))
            self._k = math.sqrt(abs(self._alpha))
            # eccentric (ellipse) or hyperbolic anomaly at the match time; 0 on a parabola
            self._anomaly = (math.atan2(self._sigma * self._k, 1.0 - self._alpha * self._r_t)
                             if self._alpha > 0.0 else math.asinh(self._sigma * self._k / self._e))
            self._period = 2.0 * math.pi / (self._sqrt_mu * self._k**3) if self._alpha > 0.0 else math.inf
        # edge slack for quadrature nodes landing a rounding error outside
        self._slack = 1e-9 * max(1.0, abs(self.match_time), self.horizon)

    @property
    def turn_rate(self):
        """Fastest angular rate of the origin path over the window, in rad/s.

        That is h / r^2 at the closest approach to the mass inside the
        window: the periapsis if one falls there, else the nearer window end.
        A parabola frame has none (0); see Trajectory.turn_rate.
        """
        if self._g is not None:
            return 0.0
        r = self._closest_approach[0]
        return math.sqrt(self._h2) / (r * r)

    @property
    def match_origin(self):
        """Origin y(match_time): the source position there by construction, with no Kepler solve."""
        return self._p_t.copy()

    def _clamped(self, s):
        s, scalar = _times(s)
        lo = self.match_time - self.horizon
        if np.any(s < lo - self._slack) or np.any(s > self.match_time + self._slack):
            raise ValueError(
                f"frame queried outside [{lo:.6g}, {self.match_time:.6g}]"
            )
        return np.clip(s, lo, self.match_time), scalar

    def _analytic(self, s, derivative):
        dt = s - self.match_time
        if derivative == 0:
            return self._p_t + dt[:, None] * self._v_t + 0.5 * (dt * dt)[:, None] * self._g
        if derivative == 1:
            return self._v_t + dt[:, None] * self._g
        return np.broadcast_to(self._g, (s.size, 3)).copy()

    def _universal(self, chi):
        """C, S, the terms of sqrt(mu) * (s - match_time), r and dr/dchi at anomaly chi."""
        beta = 1.0 - self._alpha * self._r_t
        z = self._alpha * chi * chi
        c, s = _stumpff(z)
        terms = (self._sigma * chi * chi * c, beta * chi**3 * s, self._r_t * chi)
        r = self._sigma * chi * (1.0 - z * s) + beta * chi * chi * c + self._r_t
        dr = self._sigma * (1.0 - z * c) + beta * chi * (1.0 - z * s)
        return c, s, terms, r, dr

    def _chi_guess(self, dt):
        """Kepler starter: E ~ M + e sin M, or e sinh H ~ M (no overshoot into cosh overflow)."""
        if self._alpha == 0.0:
            return self._sqrt_mu * dt / self._r_t
        k, e, anomaly = self._k, self._e, self._anomaly
        mean = self._sqrt_mu * k**3 * dt
        if self._alpha > 0.0:
            mean += anomaly - e * math.sin(anomaly)
            return (mean + e * np.sin(mean) - anomaly) / k
        mean += e * math.sinh(anomaly) - anomaly
        return (np.arcsinh(mean / e) - anomaly) / k

    def _chi(self, dt):
        """Universal anomaly at offsets dt from match_time, by Laguerre-Conway (n = 5)."""
        chi = self._chi_guess(dt)
        target = self._sqrt_mu * dt
        for _ in range(_KEPLER_ITERATIONS):
            _, _, terms, r, dr = self._universal(chi)
            f = sum(terms) - target
            # near the periapsis of an eccentric orbit the terms cancel, and
            # roundoff in f alone moves chi by more than _KEPLER_TOL
            floor = np.abs(f) <= 8.0 * np.finfo(float).eps * (sum(map(np.abs, terms)) + np.abs(target))
            step = 5.0 * f / (r + np.sqrt(np.abs(16.0 * r * r - 20.0 * f * dr)))
            chi = chi - step
            if np.all(floor | (np.abs(step) <= _KEPLER_TOL * np.abs(chi))):
                return chi
        raise ArithmeticError(f"Kepler propagation did not converge in {_KEPLER_ITERATIONS} iterations")

    def _kepler(self, s, derivative):
        dt = s - self.match_time
        if self._alpha > 0.0:  # the ellipse repeats: propagate at most half a period
            dt = dt - self._period * np.round(dt / self._period)
        chi = self._chi(dt)
        c, s_, _, r, _ = self._universal(chi)
        if derivative == 1:
            f_dot = self._sqrt_mu / (r * self._r_t) * chi * (self._alpha * chi * chi * s_ - 1.0)
            g_dot = 1.0 - chi * chi * c / r
            return f_dot[:, None] * self._rel_t + g_dot[:, None] * self._v_t
        f = 1.0 - chi * chi * c / self._r_t
        g = dt - chi**3 * s_ / self._sqrt_mu
        rel = f[:, None] * self._rel_t + g[:, None] * self._v_t
        if derivative == 0:
            return rel + self.field.position
        return (-self._mu / r**3)[:, None] * rel

    @cached_property
    def _closest_approach(self):
        """Smallest distance to the mass over the window, and when it occurs."""
        # universal anomaly of the periapsis nearest the match time, then the
        # lag back to the last periapsis (% inf sends a future one to inf)
        chi_p = -self._anomaly / self._k if self._alpha != 0.0 else -self._sigma
        lag = -float(sum(self._universal(np.array([chi_p]))[2])[0]) / self._sqrt_mu % self._period
        if lag <= self.horizon:
            return self._h2 / (self._mu * (1.0 + self._e)), self.match_time - lag
        start = self.match_time - self.horizon
        r_start = float(np.linalg.norm(self.origin(start) - self.field.position))
        return min((self._r_t, self.match_time), (r_start, start))

    def _eval(self, s, derivative):
        s, scalar = self._clamped(s)
        if self._g is None:
            out = self._kepler(s, derivative)
        else:
            out = self._analytic(s, derivative)
        return _unwrap(out, scalar)

    def origin(self, s):
        """Frame origin y(s), shape (3,) or (n, 3)."""
        return self._eval(s, 0)

    def origin_velocity(self, s):
        return self._eval(s, 1)

    def origin_acceleration(self, s):
        return self._eval(s, 2)


def build_frame(traj, field, t, horizon):
    """Construct the free-fall frame of ``traj`` in ``field`` matched at time t.

    ZeroField, UniformField and PointMassField are supported; any other
    ambient raises TypeError. A point-mass frame whose conic comes within the
    guard radius anywhere in [t - horizon, t], between samples included,
    raises SingularApproach with the closest distance and its time.
    """
    t = float(t)
    horizon = float(horizon)
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    p_t = np.array(traj.position(t), dtype=float)
    v_t = np.array(traj.velocity(t), dtype=float)

    if isinstance(field, ZeroField):
        g = np.zeros(3)
        return FreeFallFrame(t, horizon, field, p_t, v_t, g=g)
    if isinstance(field, UniformField):
        return FreeFallFrame(t, horizon, field, p_t, v_t, g=field.g.copy())
    if not isinstance(field, PointMassField):
        raise TypeError(f"no free-fall frame for ambient {type(field).__name__}")

    distance, when = float(np.linalg.norm(p_t - field.position)), t
    if distance > field.softening:
        frame = FreeFallFrame(t, horizon, field, p_t, v_t)
        distance, when = frame._closest_approach
    if distance <= field.softening:
        raise SingularApproach(f"free-fall path came within {distance:.3e} m of the external "
                               f"mass near s = {when:.6g} s", distance=distance, when=when)
    return frame


def relative_source_path(frame, traj, s):
    """Source position relative to the frame origin: position(s) - y(s)."""
    return traj.position(s) - frame.origin(s)
