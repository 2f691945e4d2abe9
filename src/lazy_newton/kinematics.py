"""Point-source trajectories with state queries at arbitrary times.

All quantities are SI (meters, seconds). Every trajectory is defined for all
times up to any evaluation time: analytic variants by formula, tabulated ones
by clamping to their earliest state. State queries accept a scalar time or a
1-D array of times and return shape (3,) or (n, 3) accordingly.

All types are immutable after construction and every query is a pure
function, so trajectories are safe to share across threads.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "as_vec3",
    "Trajectory",
    "Static",
    "UniformVelocity",
    "UniformAcceleration",
    "CircularOrbit",
    "PiecewiseStatic",
    "Sampled",
]

_X_HAT = np.array([1.0, 0.0, 0.0])
_Y_HAT = np.array([0.0, 1.0, 0.0])


def as_vec3(value, name="vector"):
    """Coerce to a float64 array of shape (3,), rejecting non-finite entries."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.shape != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v.tolist()}")
    return v


def _times(s):
    """Normalize a time argument to (1-D float array, was_scalar)."""
    arr = np.asarray(s, dtype=float)
    if arr.ndim > 1:
        raise ValueError("time must be a scalar or a 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation times must be finite")
    return np.atleast_1d(arr), arr.ndim == 0


def _unwrap(out, scalar):
    return out[0] if scalar else out


class Trajectory:
    """Base class for source paths. Subclasses implement the state queries.

    ``turn_rate`` bounds how fast, in rad/s, the path winds: a circle's
    angular frequency. Node tables keep each quadrature panel to a bounded
    angle of it, so nodes spaced wider than a revolution never alias the
    path. Paths that are polynomials between their breakpoints have none.
    """

    turn_rate = 0.0

    def position(self, s):
        raise NotImplementedError

    def velocity(self, s):
        raise NotImplementedError

    def acceleration(self, s):
        raise NotImplementedError

    def breakpoints_in(self, t_lo, t_hi):
        """Times inside [t_lo, t_hi] where the state is not smooth, ascending."""
        if t_lo > t_hi:
            raise ValueError("breakpoint window has t_lo > t_hi")
        return []

    def _zeros(self, s):
        s, scalar = _times(s)
        return _unwrap(np.zeros((s.size, 3)), scalar)

    def _const(self, v, s):
        s, scalar = _times(s)
        return _unwrap(np.broadcast_to(v, (s.size, 3)).copy(), scalar)


@dataclass(frozen=True, eq=False)
class Static(Trajectory):
    """Source at rest at ``p0`` for all times."""

    p0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p0", as_vec3(self.p0, "p0"))

    def position(self, s):
        return self._const(self.p0, s)

    def velocity(self, s):
        return self._zeros(s)

    def acceleration(self, s):
        return self._zeros(s)


@dataclass(frozen=True, eq=False)
class UniformVelocity(Trajectory):
    """Straight-line motion: position(s) = p0 + v*s."""

    p0: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p0", as_vec3(self.p0, "p0"))
        object.__setattr__(self, "v", as_vec3(self.v, "v"))

    def position(self, s):
        s, scalar = _times(s)
        return _unwrap(self.p0 + s[:, None] * self.v, scalar)

    def velocity(self, s):
        return self._const(self.v, s)

    def acceleration(self, s):
        return self._zeros(s)


@dataclass(frozen=True, eq=False)
class UniformAcceleration(Trajectory):
    """Constant-acceleration motion: position(s) = p0 + v0*s + a*s^2/2."""

    p0: np.ndarray
    v0: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p0", as_vec3(self.p0, "p0"))
        object.__setattr__(self, "v0", as_vec3(self.v0, "v0"))
        object.__setattr__(self, "a", as_vec3(self.a, "a"))

    def position(self, s):
        s, scalar = _times(s)
        return _unwrap(self.p0 + s[:, None] * self.v0 + 0.5 * (s * s)[:, None] * self.a, scalar)

    def velocity(self, s):
        s, scalar = _times(s)
        return _unwrap(self.v0 + s[:, None] * self.a, scalar)

    def acceleration(self, s):
        return self._const(self.a, s)


@dataclass(frozen=True, eq=False)
class CircularOrbit(Trajectory):
    """Uniform circular motion of radius R about ``center`` in the plane normal to ``normal``.

    The in-plane basis (e1, e2) is fixed so that for the default normal +z the
    orbit starts on +x at zero phase and runs counterclockwise:
    position(s) = center + R*(cos(w*s + phase)*e1 + sin(w*s + phase)*e2).
    """

    center: np.ndarray
    radius: float
    angular_frequency: float
    phase: float = 0.0
    normal: np.ndarray = (0.0, 0.0, 1.0)
    _e1: np.ndarray = field(init=False, repr=False)
    _e2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center, "center"))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "angular_frequency", float(self.angular_frequency))
        object.__setattr__(self, "phase", float(self.phase))
        n = as_vec3(self.normal, "normal")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("normal must be a unit vector (within 1e-12)")
        object.__setattr__(self, "normal", n)
        ref = _X_HAT if abs(float(n @ _X_HAT)) <= 0.9 else _Y_HAT
        e1 = ref - float(ref @ n) * n
        e1 = e1 / np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        object.__setattr__(self, "_e1", e1)
        object.__setattr__(self, "_e2", e2)

    @property
    def turn_rate(self):
        return abs(self.angular_frequency)

    def _angles(self, s):
        s, scalar = _times(s)
        return self.angular_frequency * s + self.phase, scalar

    def position(self, s):
        th, scalar = self._angles(s)
        out = self.center + self.radius * (np.cos(th)[:, None] * self._e1 + np.sin(th)[:, None] * self._e2)
        return _unwrap(out, scalar)

    def velocity(self, s):
        th, scalar = self._angles(s)
        rw = self.radius * self.angular_frequency
        out = rw * (-np.sin(th)[:, None] * self._e1 + np.cos(th)[:, None] * self._e2)
        return _unwrap(out, scalar)

    def acceleration(self, s):
        th, scalar = self._angles(s)
        rw2 = self.radius * self.angular_frequency ** 2
        out = -rw2 * (np.cos(th)[:, None] * self._e1 + np.sin(th)[:, None] * self._e2)
        return _unwrap(out, scalar)


@dataclass(frozen=True, eq=False)
class PiecewiseStatic(Trajectory):
    """Sequence of rest positions with instantaneous switches.

    ``epochs`` is an ordered tuple of (switch_time, position): the source sits
    at ``position`` from ``switch_time`` (inclusive, right-continuous) until
    the next switch. Before the first switch time the state clamps to the
    first position, so the leading switch time only marks a quadrature
    breakpoint. The jumps are instantaneous; velocity and acceleration are
    zero on every open interval and the impulsive spike at a switch is not
    represented.
    """

    epochs: tuple
    _switch_times: np.ndarray = field(init=False, repr=False)
    _positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.epochs) == 0:
            raise ValueError("epochs must contain at least one (time, position) entry")
        times = np.array([float(t) for t, _ in self.epochs])
        if not np.all(np.isfinite(times)):
            raise ValueError("switch times must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("switch times must be strictly increasing")
        positions = np.array([as_vec3(p, f"epochs[{i}] position") for i, (_, p) in enumerate(self.epochs)])
        object.__setattr__(self, "epochs", tuple((float(t), p.copy()) for t, p in zip(times, positions)))
        object.__setattr__(self, "_switch_times", times)
        object.__setattr__(self, "_positions", positions)

    def position(self, s):
        s, scalar = _times(s)
        idx = np.searchsorted(self._switch_times, s, side="right") - 1
        np.clip(idx, 0, None, out=idx)
        return _unwrap(self._positions[idx].copy(), scalar)

    def velocity(self, s):
        return self._zeros(s)

    def acceleration(self, s):
        return self._zeros(s)

    def breakpoints_in(self, t_lo, t_hi):
        super().breakpoints_in(t_lo, t_hi)
        return [float(t) for t in self._switch_times if t_lo <= t <= t_hi]


@dataclass(frozen=True, eq=False)
class Sampled(Trajectory):
    """Natural-cubic-spline path through measured samples.

    Outside the sampled range the state clamps to the nearest endpoint
    position with zero velocity and acceleration; the kernel integral looks
    arbitrarily far into the past, and holding the source static is the only
    extrapolation that keeps it convergent.
    """

    times: np.ndarray
    positions: np.ndarray
    _spline: object = field(init=False, repr=False)
    _d1: object = field(init=False, repr=False)
    _d2: object = field(init=False, repr=False)

    def __post_init__(self):
        # scipy costs most of the package's import time and only this path
        # needs it, so it is imported on the first sampled trajectory.
        from scipy.interpolate import CubicSpline

        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.positions, dtype=float)
        if t.ndim != 1 or t.size < 4:
            raise ValueError("need at least 4 samples")
        if p.shape != (t.size, 3):
            raise ValueError(f"positions must have shape ({t.size}, 3), got {p.shape}")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
            raise ValueError("samples must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        spline = CubicSpline(t, p, axis=0, bc_type="natural")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "_spline", spline)
        object.__setattr__(self, "_d1", spline.derivative(1))
        object.__setattr__(self, "_d2", spline.derivative(2))

    @property
    def turn_rate(self):
        """Largest turn between consecutive sample chords per sample spacing."""
        chords = np.diff(self.positions, axis=0)
        cross = np.linalg.norm(np.cross(chords[:-1], chords[1:]), axis=1)
        turn = np.arctan2(cross, np.einsum("ij,ij->i", chords[:-1], chords[1:]))
        spacing = 0.5 * (self.times[2:] - self.times[:-2])
        return float(np.max(turn / spacing))

    def _eval(self, fn, s, below, above):
        s, scalar = _times(s)
        out = np.empty((s.size, 3))
        lo = s < self.times[0]
        hi = s > self.times[-1]
        mid = ~(lo | hi)
        out[lo] = below
        out[hi] = above
        if np.any(mid):
            out[mid] = fn(s[mid])
        return _unwrap(out, scalar)

    def position(self, s):
        return self._eval(self._spline, s, self.positions[0], self.positions[-1])

    def velocity(self, s):
        return self._eval(self._d1, s, 0.0, 0.0)

    def acceleration(self, s):
        return self._eval(self._d2, s, 0.0, 0.0)

    def breakpoints_in(self, t_lo, t_hi):
        super().breakpoints_in(t_lo, t_hi)
        return [float(t) for t in (self.times[0], self.times[-1]) if t_lo <= t <= t_hi]
