import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazy_newton.kinematics import (
    CircularOrbit,
    PiecewiseStatic,
    Sampled,
    Static,
    UniformAcceleration,
    UniformVelocity,
    as_vec3,
)


def test_turn_rates():
    # paths that are polynomials between breakpoints never wind
    assert Static((1.0, 0.0, 0.0)).turn_rate == 0.0
    assert UniformVelocity((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)).turn_rate == 0.0
    assert UniformAcceleration((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, -9.81)).turn_rate == 0.0
    assert PiecewiseStatic(((0.0, (0, 0, 0)), (1.0, (1, 0, 0)))).turn_rate == 0.0
    assert CircularOrbit((0.0, 0.0, 0.0), 2.0, -3.0).turn_rate == 3.0
    # samples of a circle turn at its angular frequency
    t = np.linspace(0.0, 4.0, 401)
    circle = np.stack([np.cos(2.0 * t), np.sin(2.0 * t), np.zeros_like(t)], axis=1)
    assert Sampled(t, circle).turn_rate == pytest.approx(2.0, rel=1e-3)


def central_diff(fn, s, h=1e-5):
    return (np.asarray(fn(s + h)) - np.asarray(fn(s - h))) / (2.0 * h)


def make_trajectories():
    return [
        Static((1.0, -2.0, 3.0)),
        UniformVelocity((0.0, 1.0, 0.0), (2.0, -1.0, 0.5)),
        UniformAcceleration((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, -9.81)),
        CircularOrbit((0.0, 0.0, 0.0), 2.0, 3.0, phase=0.7),
        Sampled(np.linspace(-2.0, 2.0, 25),
                np.stack([np.sin(np.linspace(-2.0, 2.0, 25)),
                          np.cos(np.linspace(-2.0, 2.0, 25)),
                          np.linspace(-2.0, 2.0, 25) ** 2], axis=1)),
    ]


@pytest.mark.parametrize("traj", make_trajectories(), ids=lambda t: type(t).__name__)
def test_shapes_scalar_and_vector(traj):
    p = traj.position(0.25)
    assert p.shape == (3,)
    times = np.array([-1.0, 0.0, 0.5])
    P = traj.position(times)
    assert P.shape == (3, 3)
    np.testing.assert_allclose(P[2], traj.position(0.5), rtol=0, atol=0)
    assert traj.velocity(times).shape == (3, 3)
    assert traj.acceleration(times).shape == (3, 3)


@pytest.mark.parametrize("traj", make_trajectories(), ids=lambda t: type(t).__name__)
@pytest.mark.parametrize("s", [-1.3, 0.0, 0.8])
def test_velocity_is_position_derivative(traj, s):
    fd = central_diff(traj.position, s)
    np.testing.assert_allclose(traj.velocity(s), fd, rtol=1e-7, atol=1e-7)


@pytest.mark.parametrize(
    "traj", [t for t in make_trajectories() if not isinstance(t, Sampled)],
    ids=lambda t: type(t).__name__,
)
@pytest.mark.parametrize("s", [-1.3, 0.0, 0.8])
def test_acceleration_is_velocity_derivative(traj, s):
    fd = central_diff(traj.velocity, s)
    np.testing.assert_allclose(traj.acceleration(s), fd, rtol=1e-7, atol=1e-7)


def test_circular_orbit_reference_state():
    # R=1, Omega=10, default phase and normal: starts on +x, runs counterclockwise
    traj = CircularOrbit((0.0, 0.0, 0.0), 1.0, 10.0)
    np.testing.assert_allclose(traj.position(0.0), [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(traj.velocity(0.0), [0.0, 10.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(traj.acceleration(0.0), [-100.0, 0.0, 0.0], atol=1e-13)


def test_circular_orbit_period_and_radius():
    traj = CircularOrbit((1.0, 2.0, 3.0), 2.0, 3.0, phase=0.4)
    period = 2.0 * np.pi / 3.0
    np.testing.assert_allclose(traj.position(0.3), traj.position(0.3 + period), atol=1e-12)
    s = np.linspace(0, 5, 40)
    radii = np.linalg.norm(traj.position(s) - np.array([1.0, 2.0, 3.0]), axis=1)
    np.testing.assert_allclose(radii, 2.0, rtol=1e-13)


def test_circular_orbit_tilted_normal_stays_in_plane():
    n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    traj = CircularOrbit((0.0, 0.0, 0.0), 1.5, 2.0, normal=n)
    s = np.linspace(0, 4, 30)
    assert np.max(np.abs(traj.position(s) @ n)) < 1e-13
    # velocity is perpendicular to the radius at all times
    dots = np.einsum("ij,ij->i", traj.position(s), traj.velocity(s))
    assert np.max(np.abs(dots)) < 1e-12


def test_circular_orbit_validation():
    with pytest.raises(ValueError):
        CircularOrbit((0, 0, 0), -1.0, 1.0)
    with pytest.raises(ValueError):
        CircularOrbit((0, 0, 0), 1.0, 1.0, normal=(1.0, 1.0, 0.0))


def test_piecewise_static_epochs():
    traj = PiecewiseStatic(((-1.0, (0.0, 0.0, 0.0)), (0.0, (0.0, 0.0, 1.0)), (2.0, (5.0, 0.0, 0.0))))
    np.testing.assert_array_equal(traj.position(-50.0), [0.0, 0.0, 0.0])  # clamp before first
    np.testing.assert_array_equal(traj.position(-0.5), [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(traj.position(0.0), [0.0, 0.0, 1.0])  # right-continuous
    np.testing.assert_array_equal(traj.position(1.99), [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(traj.position(100.0), [5.0, 0.0, 0.0])
    np.testing.assert_array_equal(traj.velocity(0.5), [0.0, 0.0, 0.0])
    assert traj.breakpoints_in(-2.0, 1.0) == [-1.0, 0.0]
    assert traj.breakpoints_in(0.5, 1.0) == []


def test_piecewise_static_validation():
    with pytest.raises(ValueError):
        PiecewiseStatic(())
    with pytest.raises(ValueError):
        PiecewiseStatic(((0.0, (0, 0, 0)), (0.0, (1, 0, 0))))
    with pytest.raises(ValueError):
        PiecewiseStatic(((1.0, (0, 0, 0)), (0.0, (1, 0, 0))))


def test_sampled_matches_samples_and_clamps():
    t = np.linspace(0.0, 1.0, 9)
    pos = np.stack([t**3, 1.0 - t, np.zeros_like(t)], axis=1)
    traj = Sampled(t, pos)
    np.testing.assert_allclose(traj.position(t), pos, atol=1e-12)
    np.testing.assert_array_equal(traj.position(-5.0), pos[0])
    np.testing.assert_array_equal(traj.position(7.0), pos[-1])
    np.testing.assert_array_equal(traj.velocity(-5.0), [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(traj.acceleration(7.0), [0.0, 0.0, 0.0])
    assert traj.breakpoints_in(-1.0, 2.0) == [0.0, 1.0]
    assert traj.breakpoints_in(0.2, 0.8) == []


def test_package_imports_without_scipy_until_a_sampled_path(src_env):
    # runs in a fresh interpreter: the suite's other modules load scipy first;
    # field maps run on the calling thread, so no thread pool is imported either
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import lazy_newton, lazy_newton.cli
        loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent"))
        assert not loaded, loaded
        t = np.linspace(0.0, 1.0, 9)
        pos = np.stack([t**3, 1.0 - t, np.zeros_like(t)], axis=1)
        traj = lazy_newton.Sampled(t, pos)
        assert np.allclose(traj.position(t[3]), pos[3], rtol=0.0, atol=1e-12)
        assert "scipy.interpolate" in sys.modules
    """)
    subprocess.run([sys.executable, "-c", code], env=src_env, check=True)


def test_sampled_validation():
    t = np.linspace(0, 1, 4)
    with pytest.raises(ValueError):
        Sampled(t[:3], np.zeros((3, 3)))  # too few samples
    with pytest.raises(ValueError):
        Sampled(t, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        Sampled(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros((4, 3)))


def test_as_vec3_validation():
    v = as_vec3([1, 2, 3])
    assert v.dtype == np.float64
    with pytest.raises(ValueError):
        as_vec3([1.0, 2.0])
    with pytest.raises(ValueError):
        as_vec3([1.0, np.nan, 0.0])


def test_time_argument_validation():
    traj = Static((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        traj.position(np.ones((2, 2)))
    with pytest.raises(ValueError):
        traj.position(np.inf)


def test_breakpoints_window_validation():
    traj = PiecewiseStatic(((0.0, (0, 0, 0)),))
    with pytest.raises(ValueError):
        traj.breakpoints_in(1.0, 0.0)


@settings(max_examples=50, deadline=None)
@given(
    s=st.floats(-10.0, 10.0),
    v=st.floats(-5.0, 5.0),
    a=st.floats(-5.0, 5.0),
)
def test_uniform_acceleration_taylor_consistency(s, v, a):
    # position defect against its own quadratic Taylor expansion is zero
    traj = UniformAcceleration((0.1, -0.2, 0.3), (v, 0.0, v), (a, a, 0.0))
    h = 0.25
    pred = traj.position(s) + h * traj.velocity(s) + 0.5 * h * h * traj.acceleration(s)
    np.testing.assert_allclose(traj.position(s + h), pred, rtol=1e-9, atol=1e-9)
