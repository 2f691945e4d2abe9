"""End-to-end acceptance checks for the delayed-gravity simulator.

Each test times one headline capability, prints a single PASS/FAIL line
outside pytest's capture (so the checklist is visible on any run), and only
then asserts. Tolerances are the product's contract; do not relax them here.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from lazy_newton.cli import main
from lazy_newton.constants import G
from lazy_newton.errors import RegimeError
from lazy_newton.evaluator import (
    GaussLegendre,
    KernelParams,
    Source,
    _framed,
    _gauss_legendre,
    _scene_nodes,
    _split_counts,
    _split_nodes,
    _tile,
    delayed_field,
    delayed_potential,
    delayed_potential_naive,
    kernel_weights,
    scene_potential_field,
)
from lazy_newton.frames import PointMassField, UniformField, ZeroField, build_frame
from lazy_newton.kinematics import (
    CircularOrbit,
    PiecewiseStatic,
    Sampled,
    Static,
    UniformAcceleration,
    UniformVelocity,
)
from lazy_newton.scenarios import (
    boost_demo,
    estimate_tau_g,
    jump_scenario,
    orbit_scenario,
    static_shift_scenario,
)

@pytest.fixture(name="report")
def report_fixture(capsys):
    def report(number, label, ok, detail):
        line = f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]"
        with capsys.disabled():
            print(line, flush=True)

    return report


def test_criterion_1_sudden_jump_exactness(report):
    start = time.perf_counter()
    tau_g = 1e-3
    times = np.linspace(0.01 * tau_g, 40.0 * tau_g, 50)
    rep = jump_scenario((0.0, 0.0, 0.01), tau_g, 1.0, (0.0, 0.1, 0.0), times)
    worst = rep.deviation["max_relative"]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "sudden jump mixture", ok, f"max rel {worst:.3e}, {elapsed:.3f} s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_universal_height(report):
    start = time.perf_counter()
    rep = static_shift_scenario(9.81, 1e-3, 1.0, probe_distances=(1.0,))
    shift = rep.simulated["delta_up_m"][0]
    half = static_shift_scenario(9.81, 5e-4, 1.0, probe_distances=(1.0,))
    shift_half = half.simulated["delta_up_m"][0]
    elapsed = time.perf_counter() - start
    rel = abs(shift - 9.81e-6) / 9.81e-6
    quarter_rel = abs(shift_half - shift / 4.0) / (shift / 4.0)
    ok = rel <= 1e-2 and quarter_rel <= 1e-2 and elapsed < 5.0
    report(
        2,
        "universal height",
        ok,
        f"shift {shift:.6e} m (rel {rel:.2e}), halving ratio rel {quarter_rel:.2e}, "
        f"{elapsed:.3f} s",
    )
    assert rel <= 1e-2
    assert quarter_rel <= 1e-2
    assert elapsed < 5.0


def test_criterion_3_revolving_source(report):
    start = time.perf_counter()
    rep = orbit_scenario(1.0, 10.0, 1e-3, 1.0)
    ratio = rep.simulated["center_ratio_minus_1"]
    radial = rep.simulated["delta_toward_center_m"]
    elapsed = time.perf_counter() - start
    radial_rel = abs(radial - 1e-4) / 1e-4
    ok = 0.99e-4 <= ratio <= 1.01e-4 and radial_rel <= 1e-2 and elapsed < 5.0
    report(
        3,
        "revolving source",
        ok,
        f"ratio-1 {ratio:.6e}, radial shift {radial:.6e} m (rel {radial_rel:.2e}), "
        f"{elapsed:.3f} s",
    )
    assert 0.99e-4 <= ratio <= 1.01e-4
    assert radial_rel <= 1e-2
    assert elapsed < 5.0


def test_criterion_4_free_fall_restoration(report):
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for tau_g in (1e-3, 0.1):
        params = KernelParams(tau_g)
        g = np.array([0.0, 0.0, -9.81])
        falling = Source(5e3, UniformAcceleration((0, 0, 0), (3.0, 1.0, 0.0), g))
        uniform = UniformField(g)
        # two radians of free-fall dynamics inside the look-back window
        omega = 2.0 / params.t_max
        orbit = Source(5e3, CircularOrbit((0, 0, 0), 1.0, omega))
        point = PointMassField((0, 0, 0), omega**2 / G)
        for _ in range(10):
            r = rng.uniform(-2.0, 2.0, 3) + np.array([0.0, 0.0, 5.0])
            phi = delayed_potential(falling, uniform, r, 0.3, params)
            newton = -G * falling.mass / np.linalg.norm(r - falling.trajectory.position(0.3))
            worst = max(worst, abs(phi - newton) / abs(newton))
            r = rng.uniform(-0.3, 0.3, 3) + np.array([2.5, 0.0, 0.0])
            phi = delayed_potential(orbit, point, r, 0.0, params)
            newton = -G * orbit.mass / np.linalg.norm(r - orbit.trajectory.position(0.0))
            worst = max(worst, abs(phi - newton) / abs(newton))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 2.0
    report(4, "free-fall restoration", ok, f"worst rel {worst:.3e}, {elapsed:.3f} s")
    assert worst <= 1e-10
    assert elapsed < 2.0


def test_criterion_5_frame_consistency_pair(report):
    start = time.perf_counter()
    # naive evaluator, boosted description, |v| tau_g = |r| = 1 m perpendicular
    rep = boost_demo((1000.0, 0.0, 0.0), 1e-3, 1.0, (0.0, 1.0, 0.0))
    naive_rel = rep.deviation["naive_over_rest"]["relative"]
    naive_ratio = rep.simulated["naive_over_rest"]
    framed_worst = 0.0
    for speed in (0.0, 1.0, 1e3, 1e6):
        r2 = boost_demo((speed, 0.0, 0.0), 1e-3, 1.0, (0.0, 1.0, 0.0))
        framed_worst = max(framed_worst, r2.deviation["framed_over_rest"]["relative"])
    elapsed = time.perf_counter() - start
    ok = (
        abs(naive_ratio - 0.75) < 0.01
        and naive_rel <= 1e-6
        and framed_worst <= 1e-10
        and elapsed < 2.0
    )
    report(
        5,
        "frame consistency",
        ok,
        f"naive ratio {naive_ratio:.6f} (vs oracle rel {naive_rel:.2e}), "
        f"framed worst rel {framed_worst:.3e}, {elapsed:.3f} s",
    )
    assert abs(naive_ratio - 0.75) < 0.01
    assert naive_rel <= 1e-6
    assert framed_worst <= 1e-10
    assert elapsed < 2.0


def test_criterion_6_delay_time_estimate(report):
    start = time.perf_counter()
    tau = estimate_tau_g(2.3e17)
    elapsed = time.perf_counter() - start
    ok = 2.5e-4 <= tau <= 2.6e-4 and elapsed < 1e-3
    report(6, "delay-time estimate", ok, f"tau_g {tau:.6e} s, {elapsed * 1e6:.0f} us")
    assert 2.5e-4 <= tau <= 2.6e-4
    assert elapsed < 1e-3


def scenario_scenes():
    """One (source, ambient, probe, t) per scenario family."""
    return [
        (
            Source(1.0, Static((0, 0, 0))),
            UniformField((0, 0, -9.81)),
            np.array([0.6, -0.3, 0.8]),
            0.0,
        ),
        (
            Source(1.0, CircularOrbit((0, 0, 0), 1.0, 10.0)),
            ZeroField(),
            np.array([0.2, 0.3, 0.4]),
            0.0,
        ),
        (
            Source(1.0, PiecewiseStatic([(-100.0, (0, 0, 0)), (0.0, (0, 0, 0.01))])),
            ZeroField(),
            np.array([0.0, 0.1, 0.05]),
            5e-4,
        ),
        (
            Source(1.0, UniformVelocity((0, 0, 0), (-1000.0, 0, 0))),
            ZeroField(),
            np.array([0.0, 1.0, 0.0]),
            0.0,
        ),
    ]


def doubling_changes():
    """Relative change of each headline number when quadrature order doubles."""
    p32 = KernelParams(1e-3)
    p64 = KernelParams(1e-3, quadrature=GaussLegendre(order=64))
    changes = []

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    a = static_shift_scenario(9.81, 1e-3, 1.0, params=p32).simulated["delta_up_m"][0]
    b = static_shift_scenario(9.81, 1e-3, 1.0, params=p64).simulated["delta_up_m"][0]
    changes.append(rel(a, b))
    ra = orbit_scenario(1.0, 10.0, 1e-3, 1.0, params=p32).simulated
    rb = orbit_scenario(1.0, 10.0, 1e-3, 1.0, params=p64).simulated
    changes.append(rel(ra["center_ratio_minus_1"], rb["center_ratio_minus_1"]))
    changes.append(rel(ra["delta_toward_center_m"], rb["delta_toward_center_m"]))
    times = np.linspace(1e-5, 4e-2, 7)
    ja = jump_scenario((0, 0, 0.01), 1e-3, 1.0, (0, 0.1, 0), times, params=p32)
    jb = jump_scenario((0, 0, 0.01), 1e-3, 1.0, (0, 0.1, 0), times, params=p64)
    changes.extend(
        rel(x, y)
        for x, y in zip(
            ja.simulated["potentials_J_per_kg"], jb.simulated["potentials_J_per_kg"]
        )
    )
    ba = boost_demo((1000.0, 0, 0), 1e-3, 1.0, (0, 1.0, 0), params=p32).simulated
    bb = boost_demo((1000.0, 0, 0), 1e-3, 1.0, (0, 1.0, 0), params=p64).simulated
    changes.append(rel(ba["naive_over_rest"], bb["naive_over_rest"]))
    changes.append(rel(ba["framed_over_rest"], bb["framed_over_rest"]))
    return max(changes)


def newtonian_exactness():
    """True when tau_g = 0 equals the instantaneous Newton value bit for bit."""
    params = KernelParams(0.0)
    trajectories = [
        Static((0.3, -0.2, 0.5)),
        UniformVelocity((0, 0, 0), (2.0, 0, 0)),
        UniformAcceleration((0, 0, 0), (1.0, 0, 0), (0, 0, -9.81)),
        CircularOrbit((0, 0, 0), 1.0, 10.0),
        PiecewiseStatic([(-1.0, (0, 0, 0)), (0.5, (0, 0, 1.0))]),
        Sampled([-1.0, 0.0, 1.0, 2.0], [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]),
    ]
    r = np.array([3.0, 1.0, -2.0])
    t = 0.75
    for traj in trajectories:
        src = Source(4.2, traj)
        u = r - traj.position(t)
        newton = -G * src.mass / float(np.sqrt(u @ u))
        if delayed_potential_naive(src, r, t, params) != newton:
            return False
        if delayed_potential(src, ZeroField(), r, t, params) != newton:
            return False
    return True


def test_criterion_7_numerical_hygiene(report):
    start = time.perf_counter()
    worst_fd = 0.0
    for src, amb, r, t in scenario_scenes():
        params = KernelParams(1e-3)
        g = delayed_field(src, amb, r, t, params)
        h = 1e-6 * np.linalg.norm(r)
        fd = np.empty(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[i] = -(
                delayed_potential(src, amb, r + e, t, params)
                - delayed_potential(src, amb, r - e, t, params)
            ) / (2.0 * h)
        worst_fd = max(worst_fd, np.max(np.abs(g - fd)) / np.linalg.norm(g))
    worst_doubling = doubling_changes()
    newton_exact = newtonian_exactness()
    elapsed = time.perf_counter() - start
    ok = worst_fd <= 1e-6 and worst_doubling < 1e-10 and newton_exact and elapsed < 10.0
    report(
        7,
        "numerical hygiene",
        ok,
        f"field vs FD {worst_fd:.3e}, order doubling {worst_doubling:.3e}, "
        f"Newton exact {newton_exact}, {elapsed:.3f} s",
    )
    assert worst_fd <= 1e-6
    assert worst_doubling < 1e-10
    assert newton_exact
    assert elapsed < 10.0


def test_criterion_8_deterministic_field_map(tmp_path, monkeypatch, report):
    start = time.perf_counter()
    scene = {
        "sources": [
            {"mass_kg": 2.0, "trajectory": {"kind": "static", "position": [0, 0, 0]}},
            {
                "mass_kg": 1.0,
                "trajectory": {
                    "kind": "circular_orbit",
                    "center": [0, 0, 0],
                    "radius": 1.0,
                    "omega": 10.0,
                },
            },
        ],
        "ambient": {"kind": "uniform", "g": [0, 0, -9.81]},
        "tau_g_s": 1e-3,
    }
    grid = {
        "origin": [-1.0, -1.0, 2.0],
        "axes": [
            {"direction": [1, 0, 0], "extent_m": 2.0, "count": 21},
            {"direction": [0, 1, 0], "extent_m": 2.0, "count": 21},
        ],
        "times": {"start": 0.0, "stop": 2e-3, "steps": 10},
    }
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(scene))
    grd = tmp_path / "grid.json"
    grd.write_text(json.dumps(grid))
    outputs = []
    for threads in ("1", "7"):
        out = tmp_path / f"map-{threads}.csv"
        monkeypatch.setenv("LAZY_NEWTON_THREADS", threads)
        code = main(["field", "--config", str(cfg), "--grid", str(grd), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    n_rows = len(outputs[0].split(b"\n")) - 2  # header and trailing newline
    elapsed = time.perf_counter() - start
    ok = identical and n_rows == 21 * 21 * 10 and elapsed < 10.0
    report(
        8,
        "deterministic field map",
        ok,
        f"byte-identical {identical}, rows {n_rows}, {elapsed:.3f} s",
    )
    assert identical
    assert n_rows == 21 * 21 * 10
    assert elapsed < 10.0


# Not a numbered criterion: the node-sum accuracy that criterion 7's
# order-doubling margin rests on, against an exactly rounded reference.
def fsum_reference(src, amb, r, t, params):
    """Exactly rounded node sum over the same kernel_weights table, built by hand."""
    frame = build_frame(src.trajectory, amb, t, params.t_max)
    lags = [t - s for s in src.trajectory.breakpoints_in(t - params.t_max, t)]
    nodes = kernel_weights(params, lags)
    s = t - nodes.taus
    u = (r - frame.origin(t)) - (src.trajectory.position(s) - frame.origin(s))
    d = np.sqrt(np.einsum("ij,ij->i", u, u))
    return -G * src.mass * math.fsum(nodes.weights / d)


@pytest.mark.parametrize("tau_g", [2.55e-4, 1e-3, 1e-2])
def test_node_sum_matches_exactly_rounded_reference(tau_g):
    params = KernelParams(tau_g)
    omega = 2.0 / params.t_max
    orbit = (
        Source(1.0, CircularOrbit((0, 0, 0), 1.0, omega)),
        PointMassField((0, 0, 0), omega**2 / G),
        np.array([2.5, 0.1, -0.2]),
        0.0,
    )
    for src, amb, r, t in scenario_scenes() + [orbit]:
        phi = delayed_potential(src, amb, r, t, params)
        ref = fsum_reference(src, amb, r, t, params)
        # pairwise sums stay under 2 eps here; a plain running sum reaches 7.4 eps
        assert abs(phi - ref) <= 4.0 * np.finfo(float).eps * abs(ref)


def field_sum_error(sources, amb, pts, t, params):
    """Largest |grad - fsum(terms)| of a field map over points and components, in eps * sum|terms|.

    The terms w (r - x) / |r - x|^3 are formed here one node at a time, over
    the nodes the map evaluates: the coarse table of the time's node pass,
    with a lone point's split panels traded for their sub-panel nodes. A
    block of several points must split no panel, so that all of its points
    share the coarse table.
    """
    nodes = _scene_nodes(_framed(sources, amb, [t], params), [t], params)
    _, grad, singular = scene_potential_field(sources, amb, pts, t, params)
    m = _split_counts(nodes, 0, _tile(pts, nodes.coords)[2]).max(axis=0, initial=1)
    assert not singular.any() and (len(pts) == 1 or (m == 1).all())
    splits = _split_nodes(nodes, 0, m)
    keep = np.repeat(m == 1, np.diff(nodes.starts))
    positions = np.concatenate([nodes.coords.T[keep]] + [c.T for _, c, _, _ in splits])
    weights = np.concatenate([nodes.weights[keep]] + [w for _, _, w, _ in splits])
    worst = 0.0
    for p, g in zip(pts, grad):
        d = p - positions
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        terms = weights[:, None] * d / (r * r * r)[:, None]
        for j in range(3):
            scale = math.fsum(np.abs(terms[:, j]))
            if scale > 0.0:
                worst = max(worst, abs(g[j] - math.fsum(terms[:, j])) / (np.finfo(float).eps * scale))
    return worst


def reference_map(sources, amb, pts, t, params):
    """Potential (n,) and field (n, 3) from a hand-built 64-point rule on every 5 tau_g panel.

    The panels are the ungraded layout: multiples of 5 tau_g, cut at each
    source's breakpoint lags. The rule is the polished one, which equals the
    50-digit Gauss-Legendre rule rounded (test_evaluator.TestPolishedRule).
    """
    x, w = _gauss_legendre(64)
    tau_g, t_max = params.tau_g, params.t_max
    phi, grad = np.zeros(len(pts)), np.zeros((len(pts), 3))
    for src in sources:
        frame = build_frame(src.trajectory, amb, t, t_max)
        lags = [t - s for s in src.trajectory.breakpoints_in(t - t_max, t)]
        cuts = np.arange(0.0, t_max - 0.5 * tau_g, 5.0 * tau_g)
        edges = np.unique(np.concatenate([cuts, [b for b in lags if 0.0 < b < t_max], [t_max]]))
        half = 0.5 * np.diff(edges)[:, None]
        taus = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
        weights = (half * w).ravel() * np.exp(-taus / tau_g) / tau_g * (-G * src.mass)
        s = t - taus
        nodes = frame.origin(t) + src.trajectory.position(s) - frame.origin(s)
        d = pts[:, None, :] - nodes[None, :, :]
        r = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
        phi += (weights / r).sum(axis=1)
        grad += np.einsum("ij,ijk->ik", weights / r**3, d)
    return phi, grad


def test_graded_table_matches_a_64_point_table():
    # the graded table (83 nodes per source) against 64 nodes on every panel:
    # the scenario scenes and a point-mass orbit at three tau_g, and every
    # time of the criterion-8 map; each column within a fixed share of its
    # largest magnitude (a lone point's field: of its largest component)
    worst = [0.0, 0.0]

    def check(sources, amb, pts, t, params):
        phi, grad, singular = scene_potential_field(sources, amb, pts, t, params)
        ref_phi, ref_grad = reference_map(sources, amb, pts, t, params)
        assert not singular.any()
        worst[0] = max(worst[0], np.max(np.abs(phi - ref_phi)) / np.max(np.abs(ref_phi)))
        scale = np.max(np.abs(ref_grad), axis=0) if len(pts) > 1 else np.max(np.abs(ref_grad))
        worst[1] = max(worst[1], np.max(np.max(np.abs(grad - ref_grad), axis=0) / scale))

    for tau_g in (2.55e-4, 1e-3, 1e-2):
        params = KernelParams(tau_g)
        omega = 2.0 / params.t_max
        orbit = (Source(1.0, CircularOrbit((0, 0, 0), 1.0, omega)),
                 PointMassField((0, 0, 0), omega**2 / G), np.array([2.5, 0.1, -0.2]), 0.0)
        for src, amb, r, t in scenario_scenes() + [orbit]:
            check([src], amb, r[None, :], t, params)
    sources = [Source(2.0, Static((0, 0, 0))), Source(1.0, CircularOrbit((0, 0, 0), 1.0, 10.0))]
    xs = np.linspace(-1.0, 1.0, 21)
    pts = np.column_stack([np.repeat(xs, 21), np.tile(xs, 21), np.full(21 * 21, 2.0)])
    for t in np.linspace(0.0, 2e-3, 10):  # the criterion-8 map's times
        check(sources, UniformField((0, 0, -9.81)), pts, t, KernelParams(1e-3))
    assert worst[0] <= 1e-15
    assert worst[1] <= 2e-14


@pytest.mark.parametrize("tau_g", [2.55e-4, 1e-3, 1e-2])
def test_block_field_matches_exactly_rounded_reference(tau_g):
    params = KernelParams(tau_g)
    for src, amb, r, t in scenario_scenes():
        assert field_sum_error([src], amb, r[None, :], t, params) <= 16.0


def test_criterion_8_field_matches_exactly_rounded_reference():
    sources = [Source(2.0, Static((0, 0, 0))), Source(1.0, CircularOrbit((0, 0, 0), 1.0, 10.0))]
    xs = np.linspace(-1.0, 1.0, 21)
    pts = np.column_stack([np.repeat(xs, 21), np.tile(xs, 21), np.full(21 * 21, 2.0)])
    for t in np.linspace(0.0, 2e-3, 10):  # the criterion-8 map's times
        assert field_sum_error(sources, UniformField((0, 0, -9.81)), pts, t, KernelParams(1e-3)) <= 16.0
