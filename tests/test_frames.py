import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from lazy_newton import frames
from lazy_newton.constants import G
from lazy_newton.errors import SingularApproach
from lazy_newton.evaluator import KernelParams, Source, _framed, _values
from lazy_newton.frames import (
    AmbientField,
    FreeFallFrame,
    PointMassField,
    UniformField,
    ZeroField,
    build_frame,
    nongrav_accel,
    relative_source_path,
)
from lazy_newton.kinematics import CircularOrbit, Static, UniformAcceleration, UniformVelocity


def kepler_circular(radius, omega, center=(0.0, 0.0, 0.0)):
    """Orbit plus the point-mass field that makes it free-falling."""
    mass = omega**2 * radius**3 / G
    return CircularOrbit(center, radius, omega), PointMassField(center, mass)


def test_zero_and_uniform_accel():
    x = np.array([3.0, -1.0, 2.0])
    np.testing.assert_array_equal(ZeroField().accel(x), [0.0, 0.0, 0.0])
    g = UniformField((0.0, 0.0, -9.81))
    np.testing.assert_array_equal(g.accel(x), [0.0, 0.0, -9.81])
    np.testing.assert_array_equal(g.accel(np.zeros((4, 3)))[2], [0.0, 0.0, -9.81])


def test_point_mass_earth_surface_magnitude():
    # direct arithmetic: G * M_earth / R_earth^2
    field = PointMassField((0.0, 0.0, 0.0), 5.972e24)
    r = np.array([6.371e6, 0.0, 0.0])
    a = field.accel(r)
    expected = G * 5.972e24 / 6.371e6**2
    assert abs(expected - 9.82) < 0.01
    np.testing.assert_allclose(a, [-expected, 0.0, 0.0], rtol=1e-14)


def test_point_mass_guard_radius():
    field = PointMassField((1.0, 0.0, 0.0), 1.0, softening=1e-3)
    with pytest.raises(SingularApproach):
        field.accel(np.array([1.0, 0.0, 1e-4]))
    with pytest.raises(ValueError):
        PointMassField((0, 0, 0), -1.0)


def test_nongrav_accel_cases():
    g = UniformField((0.0, 0.0, -9.81))
    held = Static((0.0, 0.0, 0.0))
    np.testing.assert_allclose(nongrav_accel(held, g, 0.0), [0.0, 0.0, 9.81], atol=1e-15)

    falling = UniformAcceleration((0, 0, 0), (1.0, 0, 0), (0.0, 0.0, -9.81))
    np.testing.assert_allclose(nongrav_accel(falling, g, 2.0), [0.0, 0.0, 0.0], atol=1e-12)

    orbit = CircularOrbit((0, 0, 0), 1.0, 10.0)
    np.testing.assert_allclose(nongrav_accel(orbit, ZeroField(), 0.0), [-100.0, 0.0, 0.0], atol=1e-12)


def test_frame_zero_field_is_comoving_line():
    orbit = CircularOrbit((0, 0, 0), 1.0, 10.0)
    frame = build_frame(orbit, ZeroField(), 0.0, 0.5)
    s = np.linspace(-0.5, 0.0, 11)
    expected = np.array([1.0, 0.0, 0.0]) + s[:, None] * np.array([0.0, 10.0, 0.0])
    np.testing.assert_allclose(frame.origin(s), expected, atol=1e-14)
    np.testing.assert_allclose(frame.origin_velocity(-0.2), [0.0, 10.0, 0.0], atol=1e-14)


def test_frame_uniform_field_parabola():
    g0 = 9.81
    frame = build_frame(Static((0, 0, 0)), UniformField((0, 0, -g0)), 0.0, 1.0)
    tau = 0.3
    np.testing.assert_allclose(frame.origin(-tau), [0.0, 0.0, -0.5 * g0 * tau**2], rtol=1e-14)
    # geometric heart of the static shift: held source appears higher in the frame
    rel = relative_source_path(frame, Static((0, 0, 0)), -tau)
    np.testing.assert_allclose(rel, [0.0, 0.0, 0.5 * g0 * tau**2], rtol=1e-14)


def test_frame_terminal_matching():
    orbit, field = kepler_circular(1.0, 2.0)
    t = 0.7
    frame = build_frame(orbit, field, t, 3.0)
    np.testing.assert_allclose(frame.origin(t), orbit.position(t), rtol=0, atol=1e-14)
    np.testing.assert_allclose(frame.origin_velocity(t), orbit.velocity(t), rtol=0, atol=1e-13)
    rel = relative_source_path(frame, orbit, t)
    assert np.linalg.norm(rel) < 1e-14


def test_free_falling_source_has_zero_relative_path():
    orbit, field = kepler_circular(1.0, 1.0)
    frame = build_frame(orbit, field, 0.4, 4.0)
    s = np.linspace(0.4 - 4.0, 0.4, 101)
    rel = relative_source_path(frame, orbit, s)
    assert np.max(np.linalg.norm(rel, axis=1)) < 1e-10


_MU_1E10 = G * 1.0e10
_V_CIRC_1M = math.sqrt(_MU_1E10)  # circular speed at 1 m from 1e10 kg
# from (1, 0, 0) m: an e ~ 0.81 ellipse with 1 / semi-major axis 0.19 / m
_ELLIPSE_V = np.array([0.0, math.sqrt(1.8), 0.1]) * _V_CIRC_1M
_ELLIPSE_PERIOD = 2.0 * math.pi / math.sqrt(_MU_1E10 * 0.19**3)


@pytest.mark.parametrize(
    "p, v, horizon",
    [
        # source held static: the frame origin falls radially
        ((2.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.5),
        # eccentric ellipse, three revolutions
        ((1.0, 0.0, 0.0), _ELLIPSE_V, 3.0 * _ELLIPSE_PERIOD),
        # outbound hyperbola, periapsis inside the window
        ((1.0, 0.0, 0.0), np.array([0.3, 1.8, 0.1]) * _V_CIRC_1M, 20.0),
    ],
    ids=["radial", "ellipse", "hyperbola"],
)
def test_point_mass_frame_against_ivp_oracle(p, v, horizon):
    # compare against a tight DOP853 solve of y.. = -G M y / |y|^3
    field = PointMassField((0.0, 0.0, 0.0), 1.0e10)
    src = UniformVelocity(p, v)
    t = 0.0
    frame = build_frame(src, field, t, horizon)

    def rhs(_, y):
        return np.concatenate([y[3:], field.accel(y[:3])])

    state0 = np.concatenate([src.position(t), src.velocity(t)])
    sol = solve_ivp(rhs, (t, t - horizon), state0, method="DOP853", rtol=1e-13, atol=1e-15,
                    dense_output=True)
    s = np.linspace(t - horizon, t, 301)
    expected = sol.sol(s)
    for got, want in ((frame.origin(s), expected[:3].T), (frame.origin_velocity(s), expected[3:].T)):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


def _dop853(field, p, v, t, horizon, s):
    """Position and velocity at times s of a tight DOP853 solve of y.. = -G M y / |y|^3 from (p, v) at t."""

    def rhs(_, y):
        return np.concatenate([y[3:], field.accel(y[:3])])

    sol = solve_ivp(rhs, (t, t - horizon), np.concatenate([p, v]), method="DOP853", rtol=1e-13,
                    atol=1e-15, dense_output=True)
    out = sol.sol(s)
    return out[:3].T, out[3:].T


def test_one_batch_of_conics_against_ivp_oracle(monkeypatch):
    # the radial, ellipse and hyperbola frames above and an e = 0.999 ellipse
    # whose periapsis falls mid-window, as four match times of one frame:
    # every lag of every time is solved in one batch, against its own conic
    field = PointMassField((0.0, 0.0, 0.0), 1.0e10)
    periapsis_v = np.array([0.0, math.sqrt(1.999), 0.0]) * _V_CIRC_1M  # e = 0.999 at 1 m
    sol = solve_ivp(lambda _, y: np.concatenate([y[3:], field.accel(y[:3])]), (0.0, 10.0),
                    np.concatenate([[1.0, 0.0, 0.0], periapsis_v]), method="DOP853", rtol=1e-13, atol=1e-15)
    cases = [
        ((2.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.5),
        ((1.0, 0.0, 0.0), _ELLIPSE_V, 3.0 * _ELLIPSE_PERIOD),
        ((1.0, 0.0, 0.0), np.array([0.3, 1.8, 0.1]) * _V_CIRC_1M, 20.0),
        (sol.y[:3, -1], sol.y[3:, -1], 20.0),
    ]
    times = np.array([0.0, 1.0, 2.0, 3.0])
    p_t, v_t = (np.array([np.asarray(c[k], dtype=float) for c in cases]) for k in (0, 1))
    frame = FreeFallFrame(times, max(c[2] for c in cases), field, p_t, v_t)
    s = np.concatenate([np.linspace(t - c[2], t, 301) for t, c in zip(times, cases)])
    which = np.repeat(np.arange(len(cases)), 301)
    origin, velocity = frame.origin(s, which), frame.origin_velocity(s, which)
    for i, (t, (p, v, horizon)) in enumerate(zip(times, cases)):
        rows = which == i
        for got, want in zip((origin[rows], velocity[rows]), _dop853(field, p_t[i], v_t[i], t, horizon, s[rows])):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())
        y, w = origin[rows], velocity[rows]
        r = np.linalg.norm(y, axis=1)
        speed2 = np.einsum("ij,ij->i", w, w)
        energy = 0.5 * speed2 - _MU_1E10 / r
        assert np.max(np.abs(energy - energy[-1])) <= 1e-10 * np.max(0.5 * speed2 + _MU_1E10 / r)
        h = np.cross(y, w)
        assert np.max(np.linalg.norm(h - h[-1], axis=1)) <= 1e-10 * np.max(r * np.sqrt(speed2))
        # each lag stops at its own convergence: the batch changes no bit
        alone = FreeFallFrame(t, horizon, field, p_t[i], v_t[i])
        assert alone.origin(s[rows]).tobytes() == origin[rows].tobytes()
    assert frame.origin(3.0 - 10.0, 3) == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)
    # a batch with an unconverged lag raises, however few the others need
    monkeypatch.setattr(frames, "_KEPLER_ITERATIONS", 1)
    with pytest.raises(ArithmeticError):
        frame.origin(s, which)


def test_point_mass_origin_obeys_field_ode():
    # hardest legal case: one radian of orbital phase per quarter horizon
    orbit, field = kepler_circular(1.0, 1.0)
    frame = build_frame(orbit, field, 0.0, 4.0)
    s = np.linspace(-3.99, -0.01, 211) + 1e-4
    residual = frame.origin_acceleration(s) - field.accel(frame.origin(s))
    scale = np.linalg.norm(field.accel(frame.origin(s)), axis=1)
    assert np.max(np.linalg.norm(residual, axis=1) / scale) < 1e-9


_UNIT = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda u: math.hypot(*u) > 0.1)


@settings(max_examples=60, deadline=None)
@given(r_dir=_UNIT, v_dir=_UNIT, r0=st.floats(0.5, 2.0), speed=st.floats(0.2, 2.0),
       spans=st.floats(0.01, 30.0))
def test_point_mass_frame_conserves_energy_and_angular_momentum(r_dir, v_dir, r0, speed, spans):
    # bound (speed < 1) and unbound conics; speed is in units of escape speed
    center = np.array([3.0, -1.0, 2.0])
    rel = r0 * np.array(r_dir) / math.hypot(*r_dir)
    v = speed * math.sqrt(2.0 * _MU_1E10 / r0) * np.array(v_dir) / math.hypot(*v_dir)
    h2 = float(np.sum(np.cross(rel, v) ** 2))
    e = math.sqrt(max(0.0, 1.0 - (2.0 / r0 - v @ v / _MU_1E10) * h2 / _MU_1E10))
    assume(h2 / (_MU_1E10 * (1.0 + e)) > 0.05 * r0)  # periapsis well clear of the guard
    t, horizon = 0.7, spans * r0**1.5 / _V_CIRC_1M
    src = UniformVelocity(center + rel - t * v, v)
    frame = build_frame(src, PointMassField(center, 1.0e10), t, horizon)

    np.testing.assert_allclose(frame.origin(t), src.position(t), rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(frame.origin_velocity(t), v, rtol=1e-15, atol=1e-15)
    s = np.linspace(t - horizon, t, 101)
    y = frame.origin(s) - center
    w = frame.origin_velocity(s)
    r = np.linalg.norm(y, axis=1)
    speed2 = np.einsum("ij,ij->i", w, w)
    energy = 0.5 * speed2 - _MU_1E10 / r
    assert np.max(np.abs(energy - energy[-1])) <= 1e-10 * np.max(0.5 * speed2 + _MU_1E10 / r)
    h = np.cross(y, w)
    assert np.max(np.linalg.norm(h - h[-1], axis=1)) <= 1e-10 * np.max(r * np.sqrt(speed2))


def test_frame_domain_errors():
    frame = build_frame(Static((1, 0, 0)), ZeroField(), 0.0, 1.0)
    with pytest.raises(ValueError):
        frame.origin(0.5)
    with pytest.raises(ValueError):
        frame.origin(-1.5)
    with pytest.raises(ValueError):
        build_frame(Static((1, 0, 0)), ZeroField(), 0.0, 0.0)


def test_frame_path_hitting_mass_raises():
    # a source held at rest above a strong mass: its frame, run backward,
    # falls in and must refuse to continue within the guard radius; the guard
    # must be wide enough that a discrete step cannot leap across it
    field = PointMassField((0.0, 0.0, 0.0), 1.0e12, softening=0.1)
    held = Static((1.0, 0.0, 0.0))
    free_fall_time = math.pi / 2.0 * math.sqrt(1.0**3 / (2.0 * G * 1.0e12))
    with pytest.raises(SingularApproach) as exc:
        build_frame(held, field, 0.0, 3.0 * free_fall_time)
    assert exc.value.distance is not None
    assert exc.value.when is not None


def flyby_state(mass, q, ecc, since):
    """Position and velocity at t = 0 on a hyperbola about the origin, ``since`` s after periapsis q."""
    mu = G * mass
    a = q / (1.0 - ecc)  # negative semi-major axis
    n = math.sqrt(mu / -a**3)
    big_h = brentq(lambda x: ecc * math.sinh(x) - x - n * since, 0.0, 50.0)
    h_dot = n / (ecc * math.cosh(big_h) - 1.0)
    b = -a * math.sqrt(ecc * ecc - 1.0)
    pos = (a * (math.cosh(big_h) - ecc), b * math.sinh(big_h), 0.0)
    vel = (a * math.sinh(big_h) * h_dot, b * math.cosh(big_h) * h_dot, 0.0)
    return pos, vel


def test_frame_flyby_periapsis_between_samples_raises():
    # hyperbolic flyby whose periapsis (q = 5e-4 m, 1 s before t = 0) lies
    # inside the 1e-3 m guard; sampling the path at any fixed step misses it
    mass, q = 1.0e10, 5e-4
    pos, vel = flyby_state(mass, q, 2.0, 1.0)
    field = PointMassField((0.0, 0.0, 0.0), mass, softening=1e-3)
    with pytest.raises(SingularApproach) as exc:
        build_frame(UniformVelocity(pos, vel), field, 0.0, 4.0)
    assert abs(exc.value.when + 1.0) < 1e-6
    assert exc.value.distance == pytest.approx(q, rel=1e-9)
    # the same flyby with the periapsis outside the window is clear
    build_frame(UniformVelocity(pos, vel), field, 0.0, 0.5)


def test_frame_turn_rate_is_the_periapsis_angular_rate():
    orbit, field = kepler_circular(1.5, 7.0)
    assert build_frame(orbit, UniformField((0.0, 0.0, -9.81)), 0.0, 1.0).turn_rate == 0.0
    assert build_frame(orbit, field, 0.0, 1.0).turn_rate == pytest.approx(7.0, rel=1e-12)
    # an eccentric ellipse: the fastest angular rate over a sampled period
    mu = G * field.mass
    source = UniformVelocity((1.5, 0.0, 0.0), (0.0, 1.3 * math.sqrt(mu / 1.5), 0.0))
    frame = build_frame(source, field, 0.0, 10.0)
    s = np.linspace(-10.0, 0.0, 200001)
    rel, vel = frame.origin(s), frame.origin_velocity(s)
    rates = np.linalg.norm(np.cross(rel, vel), axis=1) / np.einsum("ij,ij->i", rel, rel)
    assert frame.turn_rate == pytest.approx(rates.max(), rel=1e-6)


def test_flyby_turn_rate_and_panels_come_from_the_window():
    # the same flyby, periapsis 1 s back, seen through a 0.5 s window: the
    # path turns fastest at the window's start, not at the periapsis
    mass = 1.0e10
    path = UniformVelocity(*flyby_state(mass, 5e-4, 2.0, 1.0))
    field = PointMassField((0.0, 0.0, 0.0), mass)
    params = KernelParams(0.5 / 40.0)  # t_max = 0.5 s
    frame = build_frame(path, field, 0.0, params.t_max)
    s = np.linspace(-params.t_max, 0.0, 20001)
    rel, vel = frame.origin(s), frame.origin_velocity(s)
    rates = np.linalg.norm(np.cross(rel, vel), axis=1) / np.einsum("ij,ij->i", rel, rel)
    assert frame.turn_rate == pytest.approx(rates.max(), rel=1e-9)
    assert rates.argmax() == 0
    far = np.array([[0.0, 0.0, 100.0]])
    framed = _framed([Source(1.0, path)], field, [0.0], params)
    *_, (nodes, panels, split) = _values(framed, [far], [0.0], params)[0]
    assert (nodes, panels, split) == (83, 8, 0)


def test_stumpff_is_unchanged_bit_for_bit():
    # the former implementation, which re-indexed z[near] on every Horner step
    series = np.array([[(-1.0) ** k / math.factorial(2 * k + 2), (-1.0) ** k / math.factorial(2 * k + 3)]
                       for k in range(9, -1, -1)])

    def reference(z):
        c, s = np.empty_like(z), np.empty_like(z)
        near, ell = np.abs(z) < 1.0, z >= 1.0
        hyp = ~(near | ell)
        cs = np.zeros((2, np.count_nonzero(near)))
        for coef in series:
            cs = cs * z[near] + coef[:, None]
        c[near], s[near] = cs
        x = np.sqrt(z[ell])
        c[ell] = 2.0 * np.sin(0.5 * x) ** 2 / z[ell]
        s[ell] = (x - np.sin(x)) / x**3
        x = np.sqrt(-z[hyp])
        c[hyp] = 2.0 * np.sinh(0.5 * x) ** 2 / -z[hyp]
        s[hyp] = (np.sinh(x) - x) / x**3
        return c, s

    rng = np.random.default_rng(17)
    z = np.concatenate([
        rng.uniform(-1.0, 1.0, 400),  # series
        rng.uniform(1.0, 40.0, 300),  # ellipse
        -np.exp(rng.uniform(0.0, np.log(500.0), 300)),  # hyperbola
        [-1.0, 0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)],
    ])
    z = rng.permutation(z)
    for got, want in zip(frames._stumpff(z), reference(z)):
        assert got.tobytes() == want.tobytes()
    for part in (z[np.abs(z) < 1.0], z[z >= 1.0], z[z <= -1.0]):  # one branch only
        for got, want in zip(frames._stumpff(part), reference(part)):
            assert got.tobytes() == want.tobytes()


def test_build_frame_rejects_unsupported_ambient():
    class Harmonic(AmbientField):
        def accel(self, x):
            return -np.asarray(x, dtype=float)

    with pytest.raises(TypeError):
        build_frame(Static((1.0, 0.0, 0.0)), Harmonic(), 0.0, 1.0)


def test_galilean_covariance_of_relative_path():
    # boosting every velocity by v and positions by v*s leaves the relative
    # source path unchanged
    g = UniformField((0.0, 0.0, -3.0))
    v = np.array([7.0, -4.0, 2.5])
    base = UniformAcceleration((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.5, 0.0, 1.0))
    boosted = UniformAcceleration((1.0, 0.0, 0.0), np.array([0.0, 2.0, 0.0]) + v, (0.5, 0.0, 1.0))
    t, horizon = 0.0, 2.0
    f_base = build_frame(base, g, t, horizon)
    f_boost = build_frame(boosted, g, t, horizon)
    s = np.linspace(t - horizon, t, 17)
    rel_base = relative_source_path(f_base, base, s)
    rel_boost = relative_source_path(f_boost, boosted, s)
    np.testing.assert_allclose(rel_boost, rel_base, rtol=1e-12, atol=1e-12)


def test_orbit_relative_path_small_lag_expansion():
    # for a revolving source in empty space the relative path at lag tau is
    # R(cos wt - 1) radially and R(wt - sin wt) tangentially
    R, w = 1.0, 10.0
    orbit = CircularOrbit((0, 0, 0), R, w)
    frame = build_frame(orbit, ZeroField(), 0.0, 0.1)
    tau = 0.01
    rel = relative_source_path(frame, orbit, -tau)
    expected = [R * (math.cos(w * tau) - 1.0), R * (w * tau - math.sin(w * tau)), 0.0]
    np.testing.assert_allclose(rel, expected, rtol=1e-12, atol=1e-15)
    # leading order: radial part is -R w^2 tau^2 / 2, next correction (w tau)^2/12
    assert abs(rel[0] + 0.5 * R * w**2 * tau**2) < 1e-3 * abs(rel[0])


def test_unconverged_kepler_propagation_raises(monkeypatch):
    monkeypatch.setattr(frames, "_KEPLER_ITERATIONS", 1)
    src = UniformVelocity((1.0, 0.0, 0.0), _ELLIPSE_V)
    frame = build_frame(src, PointMassField((0, 0, 0), 1.0e10), 0.0, 0.1)
    with pytest.raises(ArithmeticError):
        frame.origin(np.linspace(-0.1, 0.0, 5))
