import math
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import struve, y0

import lazy_newton.evaluator as evaluator
from lazy_newton.constants import G
from lazy_newton.errors import SingularApproach
from lazy_newton.evaluator import (
    CHUNK,
    TILE,
    GaussLegendre,
    KernelParams,
    Source,
    _framed,
    _gauss_legendre,
    _panel_nodes,
    _scene_nodes,
    _split_counts,
    _tile,
    _tile_rows,
    _values,
    delayed_field,
    delayed_potential,
    delayed_potential_naive,
    kernel_weights,
    prepare_scene,
    prepare_scenes,
    scene_potential_field,
    scene_potential_fields,
    superposed_potential,
)
from lazy_newton.frames import FreeFallFrame, PointMassField, UniformField, ZeroField, build_frame
from lazy_newton.kinematics import (
    CircularOrbit,
    PiecewiseStatic,
    Sampled,
    Static,
    UniformAcceleration,
    UniformVelocity,
)
from lazy_newton.scenarios import jump_scenario


def truncated_moment(k, tau_g, t_max):
    """Oracle: k-th moment of the truncated exponential kernel via quadrature."""
    # dimensionless lag keeps the integrand O(1) for the quadrature
    val, err = quad(
        lambda u: u**k * math.exp(-u), 0.0, t_max / tau_g, epsabs=1e-14, epsrel=1e-13, limit=200
    )
    assert err < 1e-12 * max(val, 1e-300)
    return val * tau_g**k


class TestKernelWeights:
    def test_normalization_and_moments(self):
        params = KernelParams(1e-3)
        nodes = kernel_weights(params)
        factor = params.t_max_factor
        assert abs(nodes.weights.sum() - (1.0 - math.exp(-factor))) < 1e-15
        # truncated closed forms
        mean = float(nodes.weights @ nodes.taus)
        m2 = float(nodes.weights @ nodes.taus**2)
        mean_exact = 1e-3 * (1.0 - math.exp(-factor) * (1.0 + factor))
        m2_exact = 2e-6 * (1.0 - math.exp(-factor) * (1.0 + factor + factor**2 / 2.0))
        assert abs(mean - mean_exact) < 1e-13 * mean_exact
        assert abs(m2 - m2_exact) < 1e-13 * m2_exact
        # untruncated targets for the full-line kernel
        assert abs(mean - 1e-3) < 1e-10 * 1e-3
        assert abs(m2 - 2e-6) < 1e-10 * 2e-6
        # independent quadrature oracle
        assert abs(mean - truncated_moment(1, 1e-3, params.t_max)) < 1e-13 * mean
        assert abs(m2 - truncated_moment(2, 1e-3, params.t_max)) < 1e-13 * m2

    def test_node_layout(self):
        params = KernelParams(1e-3)
        nodes = kernel_weights(params)
        # 40 tau_g span / (5 tau_g per segment) = 8 segments, their orders
        # graded from 32 / 2 by each panel's start lag
        assert nodes.n_segments == 8
        assert list(np.diff(nodes.starts)) == [16, 15, 13, 11, 10, 8, 6, 4]
        assert len(nodes) == 83
        assert np.all(np.diff(nodes.taus) > 0)
        assert np.all(nodes.weights > 0)
        assert nodes.taus[0] > 0 and nodes.taus[-1] < params.t_max

    def test_winding_path_gets_shorter_panels(self):
        params = KernelParams(1e-3)
        # at most MAX_TURN = 4 radians per panel, down to 5 tau_g / 100
        assert kernel_weights(params, turn_rate=0.8 / 1e-3).n_segments == 8
        nodes = kernel_weights(params, turn_rate=10.0 / 1e-3)
        assert nodes.n_segments == 100
        assert nodes.weights.sum() == -math.expm1(-40.0)
        assert kernel_weights(params, turn_rate=1e9).n_segments == 800

    def test_breakpoints_split_segments(self):
        params = KernelParams(1e-3)
        base = kernel_weights(params)
        split = kernel_weights(params, breakpoints=[1.23e-4])
        assert split.n_segments > base.n_segments
        assert abs(split.weights.sum() - base.weights.sum()) < 1e-16
        # breakpoints outside (0, t_max) are ignored
        same = kernel_weights(params, breakpoints=[-1.0, 0.0, params.t_max, 2.0])
        assert same.n_segments == base.n_segments

    @pytest.mark.parametrize("tau_g", [2.55e-4, 1e-3, 1e-2, 3.0])
    def test_doubling_the_order_raises_every_panel(self, tau_g):
        # criterion 7's order doubling compares two different tables only if
        # every coarse panel gains nodes; the panels themselves stay put
        t_max = 40.0 * tau_g
        for bps in ((), (0.013 * t_max,), (0.3 * t_max, 0.71 * t_max)):
            for rate in (0.0, 0.8 / tau_g, 10.0 / tau_g, 1e9):
                base = kernel_weights(KernelParams(tau_g), bps, turn_rate=rate)
                doubled = kernel_weights(
                    KernelParams(tau_g, quadrature=GaussLegendre(order=64)), bps, turn_rate=rate)
                np.testing.assert_array_equal(doubled.edges, base.edges)
                assert np.all(np.diff(doubled.starts) > np.diff(base.starts))

    def test_rejects_instantaneous(self):
        with pytest.raises(ValueError):
            kernel_weights(KernelParams(0.0))

    @settings(max_examples=40, deadline=None)
    @given(
        tau_g=st.floats(1e-6, 1e3),
        factor=st.floats(20.0, 80.0),
        cut=st.floats(0.01, 0.99),
    )
    def test_normalization_property(self, tau_g, factor, cut):
        params = KernelParams(tau_g, t_max_factor=factor)
        nodes = kernel_weights(params, breakpoints=[cut * params.t_max])
        total = nodes.weights.sum()
        assert abs(total - (1.0 - math.exp(-factor))) < 1e-14


def argsort_match_mass(weights, mass):
    """The mass match as first written: every weight ranked by argsort up front.

    _match_mass now has this body, and test_match_mass_picks_what_argsort_picked
    keeps the two equal, byte for byte.
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


@st.composite
def table_keys(draw, t_max):
    """(breakpoints, turn rate) of one table: duplicates, points within 1e-12 t_max of the ends."""
    bps = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    bps += draw(st.lists(st.sampled_from(bps), max_size=2)) if bps else []
    ends = draw(st.lists(st.tuples(st.booleans(), st.floats(0.0, 2e-12)), max_size=2))
    bps = [b * t_max for b in bps] + [(1.0 - e if top else e) * t_max for top, e in ends]
    # turn rates (rad per tau_g) from none up past the MAX_SPLIT floor of the panel length
    rate = draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x)))
    return bps, rate


class TestTablePass:
    @settings(max_examples=60, deadline=None)
    @given(
        log_tau=st.floats(-6.0, 0.0),
        order=st.integers(2, 64),
        data=st.data(),
    )
    def test_batched_tables_equal_tables_built_alone(self, log_tau, order, data):
        params = KernelParams(10.0 ** log_tau, quadrature=GaussLegendre(order))
        drawn = data.draw(st.lists(table_keys(params.t_max), min_size=1, max_size=6))
        drawn.append(drawn[0])  # a table that repeats in a pass is built again
        bps, rates = zip(*drawn)
        taus, weights, lo, hi, starts, at = evaluator._kernel_tables(params, bps, [r / params.tau_g for r in rates])
        for j, (b, rate) in enumerate(drawn):
            alone = kernel_weights(params, b, turn_rate=rate / params.tau_g)
            p, q = at[j], at[j + 1]
            n, e = starts[p], starts[q]
            assert taus[n:e].tobytes() == alone.taus.tobytes()
            assert weights[n:e].tobytes() == alone.weights.tobytes()
            assert np.append(lo[p:q], hi[q - 1]).tobytes() == alone.edges.tobytes()
            assert (starts[p:q + 1] - n).tobytes() == alone.starts.tobytes()

    def test_batched_tables_that_miss_the_mass(self):
        # breakpoints whose raw weights miss the kernel mass by a few ulp: some
        # take the single-ulp steps after the largest weight's correction
        params = KernelParams(1e-3)
        mass = -math.expm1(-40.0)
        bps = [[5e-5], [9.9937e-5], [2.646746e-3], [3.245995e-3], [3.34587e-3], []]
        _, weights, lo, hi, starts, at = evaluator._kernel_tables(params, bps, [0.0] * len(bps))
        missed = stepped = 0
        for j, b in enumerate(bps):
            p, q = at[j], at[j + 1]
            tab = weights[starts[p]:starts[q]]
            raw = _panel_nodes(lo[p:q], hi[p:q], 1e-3, tuple(np.diff(starts[p:q + 1]).tolist()))[1]
            missed += raw.sum() != mass
            top = raw.copy()
            top[np.argmax(top)] -= raw.sum() - mass
            stepped += top.sum() != mass
            assert tab.tobytes() == kernel_weights(params, b).weights.tobytes()
            assert tab.sum() == mass
        assert missed >= 5 and stepped >= 3

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        ties=st.integers(1, 4),
        ulps=st.integers(-20, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_match_mass_picks_what_argsort_picked(self, n, ties, ulps, seed):
        # equal largest weights included: the same weight takes the miss
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.0, 1.0, n + ties)
        weights[:ties] = weights.max() * 1.5
        rng.shuffle(weights)
        mass = float(weights.sum())
        mass += ulps * math.ulp(mass)
        got, want = weights.copy(), weights.copy()
        evaluator._match_mass(got, mass)
        argsort_match_mass(want, mass)
        assert got.tobytes() == want.tobytes()


@lru_cache(maxsize=None)
def decimal_rule(order, digits=50):
    """Oracle: Gauss-Legendre nodes and weights to 50 digits, independent of numpy.

    Newton's method on the Legendre recurrence in decimal arithmetic.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 10
        rule = []
        for i in range(order):
            x = Decimal(math.cos(math.pi * (i + 0.75) / (order + 0.5)))
            for _ in range(100):
                p0, p1 = Decimal(1), x
                for k in range(1, order):
                    p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
                dp = order * (x * p1 - p0) / (x * x - 1)
                step = p1 / dp
                x -= step
                if abs(step) < Decimal(10) ** -(digits + 5):
                    break
            p0, p1 = Decimal(1), x
            for k in range(1, order):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            dp = order * (x * p1 - p0) / (x * x - 1)
            rule.append((x, 2 / ((1 - x * x) * dp * dp)))
        return tuple(rule)


def decimal_panel_integrals(order, edges, digits=50):
    """The 50-digit rule applied to e^(-x) on each panel [edges[i], edges[i + 1]].

    Each value is the closed form e^(-a) (1 - e^(-L)) plus the rule's own
    truncation error, which is below 1e-30 wherever the rule has converged.
    """
    rule = decimal_rule(order, digits)
    with localcontext() as ctx:
        ctx.prec = digits + 10
        out = []
        for a, b in zip(edges[:-1], edges[1:]):
            a, b = Decimal(float(a)), Decimal(float(b))
            half, mid = (b - a) / 2, (b + a) / 2
            out.append(float(sum(half * w * (-(mid + half * x)).exp() for x, w in rule)))
        return out


class TestPolishedRule:
    @pytest.mark.parametrize("order", [2, 8, 32, 64, 128])
    def test_rule_is_the_exact_rule_rounded(self, order):
        # every node and weight is the 50-digit value rounded once, on any platform
        nodes, weights = _gauss_legendre(order)
        exact = sorted(decimal_rule(order))
        np.testing.assert_array_equal(nodes, [float(x) for x, _ in exact])
        np.testing.assert_array_equal(weights, [float(w) for _, w in exact])

    @pytest.mark.parametrize("order", [2, 8, 32, 64, 128])
    @pytest.mark.parametrize("panel", [0.5, 5.0, 20.0])
    def test_panel_sums_match_the_exact_rule(self, order, panel):
        # numpy's leggauss rule misses this by 11 ulp (1.2e-15) at order 32
        # on 5 tau_g panels, and by 513 ulp at order 128 on 20 tau_g panels
        edges = np.arange(0.0, 40.0 + 0.5 * panel, panel)
        _, weights, starts = _panel_nodes(edges[:-1], edges[1:], 1.0, (order,) * (edges.size - 1))
        sums = [weights[a:b].sum() for a, b in zip(starts[:-1], starts[1:])]
        for got, want in zip(sums, decimal_panel_integrals(order, edges)):
            assert abs(got - want) <= 4.0 * math.ulp(want)

    def test_kernel_table_sums_to_the_kernel_mass(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            factor = rng.uniform(20.0, 80.0)
            params = KernelParams(10.0 ** rng.uniform(-6.0, 3.0), t_max_factor=factor)
            for bps in ((), [rng.uniform(0.01, 0.99) * params.t_max]):
                assert kernel_weights(params, bps).weights.sum() == -math.expm1(-factor)

    def test_unconverged_rule_keeps_its_truncation_error(self):
        # two points per 5 tau_g panel cannot reach the kernel mass; the
        # shortfall is the rule's, and no single weight absorbs it
        params = KernelParams(1.0, quadrature=GaussLegendre(order=2, max_segment_tau_g=5.0))
        nodes = kernel_weights(params)
        edges = nodes.edges
        np.testing.assert_array_equal(
            nodes.weights, _panel_nodes(edges[:-1], edges[1:], 1.0, (2,) * nodes.n_segments)[1])
        assert abs(nodes.weights.sum() - (1.0 - math.exp(-40.0))) > 1e-3


class TestParamsValidation:
    def test_kernel_params(self):
        with pytest.raises(ValueError):
            KernelParams(-1e-3)
        with pytest.raises(ValueError):
            KernelParams(float("nan"))
        with pytest.raises(ValueError):
            KernelParams(1e-3, t_max_factor=19.0)
        with pytest.raises(ValueError):
            KernelParams(1e-3, softening_eps=0.0)
        assert KernelParams(2e-3).t_max == pytest.approx(0.08)

    def test_quadrature_specs(self):
        with pytest.raises(ValueError):
            GaussLegendre(order=1)
        with pytest.raises(ValueError):
            GaussLegendre(max_segment_tau_g=0.0)
        with pytest.raises(ValueError):
            KernelParams(1e-3, quadrature=object())

    def test_source_mass(self):
        with pytest.raises(ValueError):
            Source(0.0, Static((0, 0, 0)))
        with pytest.raises(ValueError):
            Source(-1.0, Static((0, 0, 0)))


class TestNaivePotential:
    def test_static_source_any_tau(self):
        src = Source(1.0, Static((0, 0, 0)))
        r = np.array([1.0, 0.0, 0.0])
        for tau_g in (1e-6, 1e-3, 10.0):
            phi = delayed_potential_naive(src, r, 0.0, KernelParams(tau_g))
            # kernel tail beyond 40 tau_g is dropped, not renormalized
            assert abs(phi - (1.0 - math.exp(-40.0)) * (-G)) < 1e-16

    def test_jump_mixture_closed_form(self):
        tau_g = 1e-3
        params = KernelParams(tau_g)
        a = np.array([0.0, 0.0, 0.01])
        src = Source(2.0, PiecewiseStatic([(-100.0, (0, 0, 0)), (0.0, a)]))
        r = np.array([0.0, 0.1, 0.0])
        phi_old = -G * 2.0 / np.linalg.norm(r)
        phi_new = -G * 2.0 / np.linalg.norm(r - a)
        for t in (1e-4, 5e-4, 2e-3, 1e-2, 3.9e-2):
            phi = delayed_potential_naive(src, r, t, params)
            w_new = 1.0 - math.exp(-t / tau_g)
            exact = w_new * phi_new + (math.exp(-t / tau_g) - math.exp(-40.0)) * phi_old
            assert abs(phi - exact) < 1e-13 * abs(exact)
            mixture = math.exp(-t / tau_g) * phi_old + w_new * phi_new
            assert abs(phi - mixture) < 1e-12 * abs(mixture)

    def test_perpendicular_drift_ratio(self):
        # source sliding along x, probe 1 m off-axis: |r - x(-u tau_g)| grows
        # as sqrt(1 + u^2) once v tau_g = 1 m
        tau_g = 1e-3
        src = Source(1.0, UniformVelocity((0, 0, 0), (-1000.0, 0.0, 0.0)))
        r = np.array([0.0, 1.0, 0.0])
        phi = delayed_potential_naive(src, r, 0.0, KernelParams(tau_g))
        ratio = phi / (-G * 1.0)
        oracle, err = quad(
            lambda u: math.exp(-u) / math.sqrt(1.0 + u * u), 0.0, 40.0, epsabs=1e-13, epsrel=1e-13
        )
        assert err < 1e-10
        assert abs(ratio - oracle) < 1e-9
        closed_form = math.pi / 2.0 * (struve(0, 1.0) - y0(1.0))
        assert abs(ratio - closed_form) < 1e-12

    def test_drift_ratio_decreases_with_speed(self):
        tau_g = 1e-3
        r = np.array([0.0, 1.0, 0.0])
        ratios = []
        for v in (0.0, 500.0, 1000.0, 4000.0):
            src = Source(1.0, UniformVelocity((0, 0, 0), (-v, 0.0, 0.0)))
            phi = delayed_potential_naive(src, r, 0.0, KernelParams(tau_g))
            ratios.append(phi / (-G))
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_explicit_path_overrides_trajectory(self):
        src = Source(1.0, UniformVelocity((0, 0, 0), (9.0, 0, 0)))
        r = np.array([1.0, 0.0, 0.0])
        held = lambda s: np.zeros(3) if np.isscalar(s) else np.zeros((len(s), 3))
        phi = delayed_potential_naive(src, r, 0.0, KernelParams(1e-3), path=held)
        assert abs(phi - (1.0 - math.exp(-40.0)) * (-G)) < 1e-16

    def test_newtonian_limit_is_exact(self):
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
            newton = -G * 4.2 / float(np.sqrt(u @ u))
            assert delayed_potential_naive(src, r, t, params) == newton
            assert delayed_potential(src, ZeroField(), r, t, params) == newton
            g_newton = (-G * 4.2 / float(np.sqrt(u @ u)) ** 3) * u
            np.testing.assert_array_equal(delayed_field(src, ZeroField(), r, t, params), g_newton)

    def test_singular_past_path_raises(self):
        # probe sits exactly where the source used to be
        src = Source(1.0, PiecewiseStatic([(-100.0, (0, 0, 0)), (0.0, (1.0, 0, 0))]))
        r = np.array([0.0, 0.0, 0.0])
        with pytest.raises(SingularApproach) as exc:
            delayed_potential_naive(src, r, 1e-3, KernelParams(1e-3))
        assert exc.value.distance == 0.0
        assert exc.value.when is not None and exc.value.when < 0.0

    def test_framed_singular_past_path_raises(self):
        src = Source(1.0, PiecewiseStatic([(-100.0, (0, 0, 0)), (0.0, (1.0, 0, 0))]))
        with pytest.raises(SingularApproach) as exc:
            delayed_potential(src, ZeroField(), np.zeros(3), 1e-3, KernelParams(1e-3))
        assert exc.value.distance == 0.0
        assert exc.value.when is not None and exc.value.when < 0.0

    def test_guard_hit_names_the_sub_panel_node(self):
        # the point sits on the path midway between two central nodes of the
        # first 5 s panel, 0.12 m from each; only the sub-panels the split
        # gives it reach inside the 0.05 m guard
        src = Source(1.0, UniformVelocity((0, 0, 0), (1.0, 0, 0)))
        params = KernelParams(1.0, softening_eps=0.05)
        r = np.array([-2.5, 0.0, 0.0])
        assert np.min(np.abs(kernel_weights(params).taus - 2.5)) > 0.1
        with pytest.raises(SingularApproach) as exc:
            delayed_potential_naive(src, r, 0.0, params)
        assert exc.value.distance <= 0.05
        assert abs(exc.value.when + 2.5) <= 0.05
        assert exc.value.source_index == 0

    def test_softening_is_a_guard_not_a_smoother(self):
        src = Source(1.0, Static((0, 0, 0)))
        params = KernelParams(1e-3, softening_eps=0.5)
        with pytest.raises(SingularApproach):
            delayed_potential_naive(src, np.array([0.4, 0.0, 0.0]), 0.0, params)
        # just outside the guard the value is the plain unsoftened potential
        phi = delayed_potential_naive(src, np.array([0.6, 0.0, 0.0]), 0.0, params)
        assert abs(phi - (1.0 - math.exp(-40.0)) * (-G / 0.6)) < 1e-15


def near_path_reference(traj, r, tau_g, approaches, width):
    """Oracle: -G * integral_0^40 e^(-u) / |r - x(-u tau_g)| du by scipy quad.

    The range is cut at each closest approach (in units of tau_g) and at 1
    and 8 peak widths either side, so every piece is smooth or peaks at an
    end. Returns the value and quad's summed error estimate, relative.
    """
    cuts = {0.0, 40.0}
    for c in approaches:
        cuts.update(min(max(c + k * width, 0.0), 40.0) for k in (-8, -1, 0, 1, 8))
    cuts = sorted(cuts)

    def f(u):
        return math.exp(-u) / math.dist(r, traj.position(-u * tau_g))

    parts = [
        quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200) for a, b in zip(cuts[:-1], cuts[1:])
    ]
    total = math.fsum(v for v, _ in parts)
    return -G * total, sum(e for _, e in parts) / total


class TestNearPath:
    """Field points s * |v| * tau_g from the naive past path, s in [0.01, 1].

    A table of 5 tau_g panels alone misses these by up to 1e-3; the split
    near the path brings them to the 1e-10 contract.
    """

    TAU_G = 1e-3

    def check(self, traj, speed, approaches, lag, s, seed):
        # r sits off the path point at ``lag``, square to its velocity
        tangent = traj.velocity(-lag * self.TAU_G)
        normal = np.cross(tangent, np.random.default_rng([seed, 1]).normal(size=3))
        normal /= np.linalg.norm(normal)
        r = traj.position(-lag * self.TAU_G) + s * speed * self.TAU_G * normal
        ref, err = near_path_reference(traj, r, self.TAU_G, approaches, s)
        assert err < 1e-12
        phi = delayed_potential_naive(Source(1.0, traj), r, 0.0, KernelParams(self.TAU_G))
        assert abs(phi - ref) <= 1e-10 * abs(ref)

    @settings(max_examples=30, deadline=None)
    @given(
        s=st.floats(0.01, 1.0),
        lag=st.floats(0.0, 30.0),
        log_speed=st.floats(1.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_straight_path(self, s, lag, log_speed, seed):
        direction = np.random.default_rng(seed).normal(size=3)
        v = 10.0**log_speed * direction / np.linalg.norm(direction)
        traj = UniformVelocity((0.0, 0.0, 0.0), v)
        self.check(traj, float(np.linalg.norm(v)), [lag], lag, s, seed)

    @settings(max_examples=30, deadline=None)
    @given(
        s=st.floats(0.01, 1.0),
        lag=st.floats(0.0, 30.0),
        log_omega_tau=st.floats(-3.0, math.log10(3.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_circular_orbit(self, s, lag, log_omega_tau, seed):
        omega = 10.0**log_omega_tau / self.TAU_G
        traj = CircularOrbit((0.0, 0.0, 0.0), 1.0, omega)
        # the closest approach comes back once per period
        period = 2.0 * math.pi / (omega * self.TAU_G)
        self.check(traj, omega, list(np.arange(lag % period, 40.0, period)), lag, s, seed)


class TestFastOrbitFarField:
    """Orbits that turn many radians per 5 tau_g panel, seen from 2 to 200 radii.

    No field point is near the path, so nothing splits for geometry; the
    table must still not alias the orbit (Trajectory.turn_rate).
    """

    TAU_G = 1e-3

    @settings(max_examples=20, deadline=None)
    @given(
        log_omega_tau=st.floats(math.log10(3.0), math.log10(30.0)),
        log_distance=st.floats(math.log10(3.0), math.log10(201.0)),
        sin_elevation=st.floats(-1.0, 1.0),
        azimuth=st.floats(0.0, 2.0 * math.pi),
        phase=st.floats(0.0, 2.0 * math.pi),
    )
    def test_matches_quad(self, log_omega_tau, log_distance, sin_elevation, azimuth, phase):
        omega_tau = 10.0**log_omega_tau
        traj = CircularOrbit((0.0, 0.0, 0.0), 1.0, omega_tau / self.TAU_G, phase=phase)
        cos_elevation = math.sqrt(1.0 - sin_elevation**2)
        r = 10.0**log_distance * np.array(
            [cos_elevation * math.cos(azimuth), cos_elevation * math.sin(azimuth), sin_elevation]
        )
        # the unit-radius orbit keeps r at least 2 radii off the path

        def f(u):
            return math.exp(-u) / math.dist(r, traj.position(-u * self.TAU_G))

        # quad on pieces of at most 2 radians of orbit
        cuts = np.append(np.arange(0.0, 40.0, min(5.0, 2.0 / omega_tau)), 40.0)
        parts = [quad(f, a, b, epsabs=0.0, epsrel=1e-13) for a, b in zip(cuts[:-1], cuts[1:])]
        total = math.fsum(v for v, _ in parts)
        assert sum(e for _, e in parts) < 1e-12 * total
        ref = -G * total
        phi = delayed_potential_naive(Source(1.0, traj), r, 0.0, KernelParams(self.TAU_G))
        assert abs(phi - ref) <= 1e-10 * abs(ref)


class TestFramedPotential:
    def test_matches_naive_for_unaccelerated_source(self):
        # zero ambient, static source: the frame is inertial and coincident
        src = Source(3.0, Static((0.5, 0, 0)))
        r = np.array([2.0, 1.0, 0.0])
        params = KernelParams(1e-3)
        phi_naive = delayed_potential_naive(src, r, 0.0, params)
        phi_framed = delayed_potential(src, ZeroField(), r, 0.0, params)
        assert abs(phi_framed - phi_naive) < 1e-16

    def test_restoration_uniform_ambient(self):
        g = np.array([0.0, 0.0, -9.81])
        src = Source(5e3, UniformAcceleration((0, 0, 0), (3.0, 0, 0), g))
        amb = UniformField(g)
        rng = np.random.default_rng(3)
        for tau_g in (1e-3, 0.1):
            params = KernelParams(tau_g)
            for _ in range(5):
                r = rng.uniform(-2, 2, 3) + np.array([0.0, 0.0, 5.0])
                phi = delayed_potential(src, amb, r, 0.4, params)
                newton = -G * 5e3 / np.linalg.norm(r - src.trajectory.position(0.4))
                assert abs(phi - newton) < 1e-12 * abs(newton)

    def test_restoration_point_mass_ambient(self):
        omega = 2.0 / (40.0 * 1e-3)
        orbit = CircularOrbit((0, 0, 0), 1.0, omega)
        amb = PointMassField((0, 0, 0), omega**2 / G)
        src = Source(5e3, orbit)
        params = KernelParams(1e-3)
        rng = np.random.default_rng(4)
        for _ in range(5):
            r = rng.uniform(-0.3, 0.3, 3) + np.array([2.5, 0.0, 0.0])
            phi = delayed_potential(src, amb, r, 0.0, params)
            newton = -G * 5e3 / np.linalg.norm(r - orbit.position(0.0))
            assert abs(phi - newton) < 1e-10 * abs(newton)

    def test_supported_static_source_shows_upward_shift(self):
        g0, tau_g = 9.81, 1e-3
        src = Source(1.0, Static((0, 0, 0)))
        amb = UniformField((0, 0, -g0))
        params = KernelParams(tau_g)
        delta = g0 * tau_g**2
        r = np.array([0.0, 0.0, 1.0])
        phi = delayed_potential(src, amb, r, 0.0, params)
        shifted = -G / abs(1.0 - delta)
        # agreement to O((delta/d)^2) of the shifted point-mass potential
        assert abs(phi - shifted) < 10.0 * delta**2 * abs(shifted)

    def test_orbit_center_enhancement(self):
        tau_g, omega = 1e-3, 10.0
        src = Source(1.0, CircularOrbit((0, 0, 0), 1.0, omega))
        phi = delayed_potential(src, ZeroField(), np.zeros(3), 0.0, KernelParams(tau_g))
        ratio = abs(phi) / G
        assert abs(ratio - (1.0 + omega**2 * tau_g**2)) < 1e-2 * omega**2 * tau_g**2 + 1e-15



class TestMergedFrames:
    """_framed frames every source of a scene in one FreeFallFrame."""

    @staticmethod
    def flyby(x_at_zero):
        # 1 km/s past a 1e10 kg mass at impact parameter 0.5 mm, inside its 1 mm guard
        return UniformVelocity((x_at_zero, 5e-4, 0.0), (1000.0, 0.0, 0.0))

    @staticmethod
    def kepler_scene(mass):
        # three Kepler circles about a point mass of ``mass`` and a straight source, at four times
        sources = [
            Source(k + 1.0, CircularOrbit((0, 0, 0), radius, math.sqrt(G * mass / radius**3), phase=phase))
            for k, (radius, phase) in enumerate(((1.0, 0.3), (1.5, 2.0), (2.0, 4.1)))
        ]
        sources.append(Source(0.5, UniformVelocity((3.0, 0.0, 0.0), (0.0, 3.0, 0.0))))
        return sources, KernelParams(1e-3), [0.1, 0.102, 0.3, 0.7]

    def test_each_source_is_framed_as_alone(self):
        mass = 1e12
        sources, params, times = self.kepler_scene(mass)
        s = np.concatenate([t - params.t_max * np.linspace(0.0, 1.0, 17) for t in times])
        which = np.repeat(np.arange(len(times)), 17)
        count, n = len(times), len(sources)
        for amb in (PointMassField((0, 0, 0), mass), UniformField((0, 0, -9.81))):
            own, path, shifts, rates = _framed(sources, amb, times, params)
            assert own is sources
            assert shifts.shape == (n * count, 3) and rates.shape == (n * count,)
            # one path call over every slot of every source, time after time
            # and within a time source after source, as the node pass asks it
            slots = np.arange(n * count).repeat(17)
            mixed = path(np.tile(s.reshape(count, 1, 17), (1, n, 1)).ravel(), slots).reshape(count, n, 17, 3)
            for k, src in enumerate(sources):
                _, alone_path, alone_shifts, alone_rates = _framed([src], amb, times, params)
                mine = slice(k, None, n)
                assert path(s, which * n + k).tobytes() == alone_path(s, which).tobytes()
                assert mixed[:, k].tobytes() == alone_path(s, which).tobytes()
                at2 = s[which == 2]  # one slot for every s, as a prepared scene's path asks it
                assert path(at2, 2 * n + k).tobytes() == alone_path(at2, 2).tobytes()
                assert shifts[mine].tobytes() == alone_shifts.tobytes()
                assert rates[mine].tobytes() == alone_rates.tobytes()

    def test_slots_run_time_major_as_the_node_pass(self):
        # slot j of the frames and entry j of the node pass are both source
        # j % S at times[j // S]: the pass reads the framed path and shifts
        # at its own entry index
        mass = 1e12
        sources, params, times = self.kepler_scene(mass)
        n = len(sources)
        framed = _framed(sources, PointMassField((0, 0, 0), mass), times, params)
        _, path, shifts, _ = framed
        for j in range(n * len(times)):
            assert shifts[j].tobytes() == sources[j % n].trajectory.position(times[j // n]).tobytes()
        nodes = _scene_nodes(framed, times, params)
        at = np.cumsum([0, *(c for counts in nodes.counts for c in counts)])
        for j, (a, b) in enumerate(zip(at, at[1:])):
            want = path(times[j // n] - nodes.lags[a:b], j) + shifts[j]
            assert nodes.coords[:, a:b].tobytes() == np.ascontiguousarray(want.T).tobytes()

    def test_each_source_keeps_its_own_turn_rate(self):
        # the orbit's tables need 102 nodes where the static source, listed
        # first, needs the default 83: each slot's table follows its own
        # source's turn rate, never another source's at the same time
        sources = [Source(2.0, Static((0, 0, 0.5))), Source(1.0, CircularOrbit((0, 0, 0), 1.0, 100.0))]
        params = KernelParams(1e-2)
        for amb in (ZeroField(), UniformField((0, 0, -9.81))):
            for times in ([0.0], [0.0, 0.01]):
                scenes = prepare_scenes(sources, amb, times, params)
                assert [scene.n_nodes_per_source for scene in scenes] == [(83, 102)] * len(times)
                for t, scene in zip(times, scenes):
                    alone = [prepare_scene([src], amb, t, params) for src in sources]
                    assert scene.n_nodes_per_source == tuple(a.n_nodes_per_source[0] for a in alone)
                    assert scene.lags.tobytes() == np.concatenate([a.lags for a in alone]).tobytes()
                    assert scene.coords.tobytes() == np.concatenate([a.coords for a in alone], axis=1).tobytes()

    def test_one_build_frames_call_per_scene(self, monkeypatch):
        calls = []
        original = evaluator.build_frames

        def counted(*args):
            calls.append(len(args[0]))
            return original(*args)

        monkeypatch.setattr(evaluator, "build_frames", counted)
        sources = [Source(1.0, Static((0, 0, k))) for k in range(3)]
        scene_potential_fields(sources, UniformField((0, 0, -9.81)), np.ones((4, 3)) * 5.0, [0.0, 1e-3],
                               KernelParams(1e-3))
        assert calls == [3]

    def test_earliest_time_then_first_source(self):
        # source 1 passes the mass at t = 0 and source 0 at t = 0.02: the
        # windows (40 ms) of times[1] hold only source 1's periapsis, those
        # of times[2] both. The error is source 1's at times[1], as framing
        # that source alone at that time raises it
        amb = PointMassField((0.0, 0.0, 0.0), 1.0e10, softening=1e-3)
        sources = [Source(1.0, self.flyby(-20.0)), Source(2.0, self.flyby(0.0))]
        params = KernelParams(1e-3)
        times = [-0.2, 0.01, 0.03]
        frames = [build_frame_error(src, amb, times, params) for src in sources]
        assert [e is not None for e in frames[0]] == [False, False, True]
        assert [e is not None for e in frames[1]] == [False, True, True]
        alone = frames[1][1]
        pts = np.array([[0.0, 0.0, 5.0]])
        calls = [
            lambda: _framed(sources, amb, times, params),
            lambda: scene_potential_fields(sources, amb, pts, times, params),
            lambda: superposed_potential(sources, amb, pts[0], times[1], params),
        ]
        for call in calls:
            with pytest.raises(SingularApproach) as merged:
                call()
            assert str(merged.value) == str(alone)
            assert (merged.value.distance, merged.value.when) == (alone.distance, alone.when)
        # the later time alone names source 0, the first of the two sources inside
        with pytest.raises(SingularApproach) as later:
            _framed(sources, amb, times[2:], params)
        assert str(later.value) == str(frames[0][2])


def build_frame_error(src, amb, times, params):
    """The SingularApproach build_frame raises for ``src`` at each of ``times``, or None."""
    out = []
    for t in times:
        try:
            build_frame(src.trajectory, amb, t, params.t_max)
            out.append(None)
        except SingularApproach as exc:
            out.append(exc)
    return out


class TestDelayedField:
    def test_static_source_field(self):
        src = Source(3.0, Static((0, 0, 0)))
        r = np.array([2.0, 0.0, 0.0])
        g = delayed_field(src, ZeroField(), r, 0.0, KernelParams(1e-3))
        expected = (1.0 - math.exp(-40.0)) * np.array([-G * 3.0 / 4.0, 0.0, 0.0])
        np.testing.assert_allclose(g, expected, rtol=1e-14, atol=1e-26)

    @pytest.mark.parametrize(
        "src,amb,r",
        [
            (Source(1.0, Static((0, 0, 0))), UniformField((0, 0, -9.81)), [0.0, 0.0, 1.0]),
            (Source(1.0, CircularOrbit((0, 0, 0), 1.0, 10.0)), ZeroField(), [0.3, 0.2, 0.1]),
            (
                Source(2.0, PiecewiseStatic([(-100.0, (0, 0, 0)), (0.0, (0, 0, 0.01))])),
                ZeroField(),
                [0.0, 0.1, 0.0],
            ),
        ],
    )
    def test_matches_finite_differences(self, src, amb, r):
        params = KernelParams(1e-3)
        r = np.array(r)
        t = 5e-4
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
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6 * np.linalg.norm(g))


class TestSuperposition:
    def test_empty_scene(self):
        assert superposed_potential([], ZeroField(), np.ones(3), 0.0, KernelParams(1e-3)) == 0.0

    def test_two_symmetric_sources(self):
        params = KernelParams(1e-3)
        pair = [Source(1.0, Static((1.0, 0, 0))), Source(1.0, Static((-1.0, 0, 0)))]
        r = np.array([0.0, 2.0, 0.0])
        single = delayed_potential(pair[0], ZeroField(), r, 0.0, params)
        total = superposed_potential(pair, ZeroField(), r, 0.0, params)
        assert abs(total - 2.0 * single) < 1e-15 * abs(total)

    def test_singular_source_is_identified(self):
        params = KernelParams(1e-3)
        sources = [
            Source(1.0, Static((1.0, 0, 0))),
            Source(1.0, Static((0.0, 0, 0))),
        ]
        with pytest.raises(SingularApproach) as exc:
            superposed_potential(sources, ZeroField(), np.zeros(3), 0.0, params)
        assert exc.value.source_index == 1


class TestSplitGuard:
    """A split row's guard error names the nearest node it was summed against.

    The scene lists a static source first and a 1 m, 100 rad/s orbit
    second, on the naive route with a 0.1 mm guard radius; points lie
    1e-7 to 1e-4 m off the orbit's past path, where the orbit's panels
    split and only their sub-panel nodes come inside the guard.
    """

    orbit = CircularOrbit((0, 0, 0), 1.0, 100.0)
    sources = [Source(2.0, Static((0, 0, 0))), Source(1.0, orbit)]
    params = KernelParams(1e-3, softening_eps=1e-4)

    def near_path(self, rng, t):
        u = rng.normal(size=3)
        lag = rng.uniform(0.0, self.params.t_max)
        return self.orbit.position(t - lag) + 10.0 ** rng.uniform(-7.0, -4.0) * u / np.linalg.norm(u)

    def values(self, pts, t):
        return evaluator._values(evaluator._naive(self.sources), [pts], [t], self.params)[0]

    def test_distance_is_that_of_the_named_orbit_position(self):
        rng = np.random.default_rng(17)
        raised = 0
        for _ in range(200):
            t = float(rng.uniform(0.0, 0.01))
            r = self.near_path(rng, t)
            error = self.values(r[None, :], t)[3]
            if error is None:
                continue
            raised += 1
            assert error.source_index == 1
            assert error.distance <= self.params.softening_eps
            oracle = math.dist(r, self.orbit.position(error.when))
            assert abs(error.distance - oracle) <= 4e-16 * oracle
        assert raised >= 100

    def test_first_guarded_row_in_a_later_block_raises_as_alone(self):
        rng = np.random.default_rng(23)
        t = 2e-3
        pts = rng.uniform(-3.0, 3.0, (600, 3)) + np.array([0.0, 0.0, 8.0])  # far: no split, no guard
        for k in range(10, 20):  # first-block rows 1 cm off the past path
            pts[k] = self.orbit.position(t - 0.003 * (k - 9)) + np.array([0.0, 0.0, 0.01])
        *_, error, (_, _, split) = self.values(pts[:CHUNK], t)
        assert error is None and split > 0  # the first block splits panels, unguarded
        alone = None
        while alone is None:  # a point that the guard catches
            pts[550] = self.near_path(rng, t)
            alone = self.values(pts[550:551], t)[3]
        assert 550 // CHUNK == 1
        phi, _, singular, error, _ = self.values(pts, t)
        assert np.flatnonzero(singular).tolist() == [550] and np.isfinite(phi[:550]).all()
        key = (str(error), error.distance, error.when, error.source_index)
        assert key == (str(alone), alone.distance, alone.when, alone.source_index)


def node_pass(sources, amb, t, params):
    """The node pass (_Nodes) of one time, as _values plans its splits from it."""
    return _scene_nodes(_framed(sources, amb, [t], params), [t], params)


class TestSceneEvaluation:
    def scene(self):
        sources = [
            Source(2.0, Static((0, 0, 0))),
            Source(1.0, CircularOrbit((0, 0, 0), 1.0, 10.0)),
        ]
        return sources, UniformField((0, 0, -9.81))

    def test_prepared_scene_weight_totals(self):
        sources, amb = self.scene()
        params = KernelParams(1e-3)
        scene = prepare_scene(sources, amb, 0.0, params)
        expected = -G * (2.0 + 1.0) * (1.0 - math.exp(-40.0))
        assert abs(scene.weights.sum() - expected) < 1e-15 * abs(expected)
        assert scene.positions.shape == scene.weights.shape + (3,)

    def test_prepared_scene_keeps_node_lags(self):
        sources, amb = self.scene()
        params = KernelParams(1e-3)
        scene = prepare_scene(sources, amb, 0.0, params)
        taus = kernel_weights(params).taus
        assert scene.n_nodes_per_source == (taus.size, taus.size)
        np.testing.assert_array_equal(scene.lags, np.concatenate([taus, taus]))

    @pytest.mark.parametrize("ambient", ["uniform", "point_mass"])
    def test_prepared_scenes_equal_one_time_scenes(self, ambient):
        # a jump gives each time inside its window a table of its own and the
        # later times a shared one; order 42 gives each table's last panel
        # nine nodes, whose polyline sum a neighbouring time's step would regroup
        mass = 1e12
        sources = [
            Source(2.0, PiecewiseStatic(((-1.0, (3.0, 0.0, 0.0)), (0.0, (3.0, 0.0, 0.01))))),
            Source(1.0, CircularOrbit((0, 0, 0), 1.0, math.sqrt(G * mass))),
        ]
        amb = UniformField((0, 0, -9.81)) if ambient == "uniform" else PointMassField((0, 0, 0), mass)
        params = KernelParams(1e-3, quadrature=GaussLegendre(order=42))
        assert np.diff(kernel_weights(params).starts)[-1] == 9
        times = [0.013, 0.052, 0.021, 0.07, 0.013]
        framed = _framed(sources, amb, times, params)
        nodes = _scene_nodes(framed, times, params)
        for i, (t, scene) in enumerate(zip(times, prepare_scenes(sources, amb, times, params))):
            alone = prepare_scene(sources, amb, t, params)
            assert scene.t == alone.t and scene.n_nodes_per_source == alone.n_nodes_per_source
            for name in ("coords", "weights", "lags", "starts"):
                assert getattr(scene, name).tobytes() == getattr(alone, name).tobytes(), name
            # what a split reads: the time's panels in the node pass, and each source's frame shift
            own = node_pass(sources, amb, t, params)
            p, q = nodes.panel_at[i], nodes.panel_at[i + 1]
            for name in ("edges", "lengths", "gaps", "sources"):
                assert getattr(nodes, name)[p:q].tobytes() == getattr(own, name).tobytes(), name
            assert framed[2][i * len(sources):(i + 1) * len(sources)].tobytes() == own.framed[2].tobytes()

    def test_matches_per_point_evaluators(self):
        sources, amb = self.scene()
        params = KernelParams(1e-3)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, (7, 3)) + np.array([0.0, 0.0, 3.0])
        phi, grad, singular = scene_potential_field(sources, amb, pts, 0.0, params)
        assert not singular.any()
        for k, r in enumerate(pts):
            expected = superposed_potential(sources, amb, r, 0.0, params)
            assert abs(phi[k] - expected) < 1e-12 * abs(expected)
            gsum = sum(delayed_field(s, amb, r, 0.0, params) for s in sources)
            np.testing.assert_allclose(grad[k], gsum, rtol=1e-12, atol=1e-25)

    def test_singular_points_masked_not_fatal(self):
        sources, amb = self.scene()
        params = KernelParams(1e-3)
        pts = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, -2.0]])
        phi, grad, singular = scene_potential_field(sources, amb, pts, 0.0, params)
        assert list(singular) == [False, True, False]
        assert np.isnan(phi[1]) and np.isnan(grad[1]).all()
        assert np.isfinite(phi[[0, 2]]).all() and np.isfinite(grad[[0, 2]]).all()

    def test_point_order_does_not_change_bytes(self):
        # reversed, the 1100 points fall in other blocks and tiles; no panel
        # splits, so each row depends on its own point alone
        sources, amb = self.scene()
        params = KernelParams(1e-3)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2, 2, (1100, 3)) + np.array([0.0, 0.0, 4.0])
        nodes = node_pass(sources, amb, 0.0, params)
        assert _split_counts(nodes, 0, _tile(pts, nodes.coords)[2]).max() == 1
        phi, grad, _ = scene_potential_field(sources, amb, pts, 0.0, params)
        phi_rev, grad_rev, _ = scene_potential_field(sources, amb, pts[::-1], 0.0, params)
        assert phi.tobytes() == phi_rev[::-1].tobytes()
        assert grad.tobytes() == grad_rev[::-1].tobytes()

    def test_split_map_matches_its_blocks(self):
        # a map on the plane of a fast orbit: rows near its past path fall in
        # three of the four blocks and in many row tiles, and split panels
        sources = [
            Source(1.0, CircularOrbit((0, 0, 0), 1.0, 100.0)),
            Source(2.0, Static((0, 0, 0.5))),
        ]
        amb = UniformField((0, 0, -9.81))
        params = KernelParams(1e-3)
        xs = np.linspace(-2.49, 2.51, 41)
        pts = np.column_stack([np.repeat(xs, 41), np.tile(xs, 41), np.zeros(41 * 41)])
        nodes = node_pass(sources, amb, 0.0, params)
        rows = _tile_rows(nodes.coords.shape[1])
        split_panels, split_blocks, split_tiles = 0, set(), set()
        block_phi, block_grad = [], []
        for lo in range(0, len(pts), CHUNK):
            block = pts[lo:lo + CHUNK]
            phi, grad, singular, _, (_, panels, split) = _values(
                _framed(sources, amb, [0.0], params), [block], [0.0], params)[0]
            block_phi.append(phi)
            block_grad.append(grad)
            # the block's split is the largest need of any point, skipped rows included
            counts = _split_counts(nodes, 0, _tile(block, nodes.coords)[2])
            m = counts.max(axis=0)
            assert not singular.any()
            assert (panels, split) == (m.sum(), np.sum(m > 1))
            split_panels += split
            for row in np.flatnonzero(np.any(counts > 1, axis=1)):
                split_blocks.add(lo)
                split_tiles.add((lo, row // rows))
        assert split_panels > 0
        assert len(split_blocks) >= 3 and len(split_tiles) >= 6
        # the map is its CHUNK-point blocks evaluated one by one
        phi, grad, _ = scene_potential_field(sources, amb, pts, 0.0, params)
        assert phi.tobytes() == np.concatenate(block_phi).tobytes()
        assert grad.tobytes() == np.concatenate(block_grad).tobytes()

    def test_tile_rows_do_not_change_bytes(self, monkeypatch):
        # K-derived tiles (here 2 x 83 nodes: 49 rows) against TILE-row tiles,
        # on a map whose rows near a fast orbit split panels
        sources = [
            Source(1.0, CircularOrbit((0, 0, 0), 1.0, 100.0)),
            Source(2.0, Static((0, 0, 0.5))),
        ]
        amb = UniformField((0, 0, -9.81))
        params = KernelParams(1e-3)
        xs = np.linspace(-2.49, 2.51, 41)
        pts = np.column_stack([np.repeat(xs, 41), np.tile(xs, 41), np.zeros(41 * 41)])
        nodes = node_pass(sources, amb, 0.0, params)
        assert _tile_rows(nodes.coords.shape[1]) > TILE
        assert _split_counts(nodes, 0, _tile(pts[:CHUNK], nodes.coords)[2]).max() > 1
        phi, grad, _ = scene_potential_field(sources, amb, pts, 0.0, params)
        monkeypatch.setattr(evaluator, "_tile_rows", lambda k: TILE)
        phi16, grad16, _ = scene_potential_field(sources, amb, pts, 0.0, params)
        assert phi.tobytes() == phi16.tobytes()
        assert grad.tobytes() == grad16.tobytes()

    def test_point_mass_frames_skip_the_match_time_solve(self, monkeypatch):
        # the origin at the match time is the source's own position there;
        # the nodes take one solve per source and the window starts of every
        # source at most one, since one frame holds them all
        mass = 1e12
        sources = [
            Source(1.0, CircularOrbit((0, 0, 0), radius, math.sqrt(G * mass / radius**3), phase=phase))
            for radius, phase in ((1.0, 0.3), (1.5, 2.0), (2.0, 4.1))
        ]
        amb = PointMassField((0, 0, 0), mass)
        calls = []
        original = FreeFallFrame.origin

        def counted(frame, s, which=None):
            calls.append(np.array(s, dtype=float))
            return original(frame, s, which)

        monkeypatch.setattr(FreeFallFrame, "origin", counted)
        t = 0.37
        prepare_scene(sources, amb, t, KernelParams(1e-3))
        assert len(calls) <= len(sources) + 1
        assert not any(s.ndim == 0 and s == t for s in calls)
        monkeypatch.undo()
        positions = np.array([src.trajectory.position(t) for src in sources])
        np.testing.assert_array_equal(_framed(sources, amb, [t], KernelParams(1e-3))[2], positions)

    def test_point_mass_map_takes_one_node_solve(self, monkeypatch):
        # three sources on Kepler circles at six times, as the bench's point-mass
        # map: one window-start solve for every frame, then one solve for every
        # node and panel end point of every source and time
        tau_g = 1e-3
        mass = (2.0 / (40.0 * tau_g)) ** 2 / G  # the inner orbit turns two radians per window
        sources = [
            Source(k + 1.0, CircularOrbit((0, 0, 0), radius, math.sqrt(G * mass / radius**3), phase=phase))
            for k, (radius, phase) in enumerate(((1.0, 0.3), (1.5, 2.0), (2.0, 4.1)))
        ]
        amb = PointMassField((0, 0, 0), mass)
        xs = np.linspace(-2.0, 2.0, 5)
        pts = np.column_stack([np.repeat(xs, 5), np.tile(xs, 5), np.full(25, 0.7)])
        times = list(0.4 + 2e-3 * np.arange(6))
        calls = []
        original = FreeFallFrame.origin

        def counted(frame, s, which=None):
            calls.append(np.size(s))
            return original(frame, s, which)

        monkeypatch.setattr(FreeFallFrame, "origin", counted)
        maps = scene_potential_fields(sources, amb, pts, times, KernelParams(tau_g))
        monkeypatch.undo()
        assert len(calls) == 2
        scenes = prepare_scenes(sources, amb, times, KernelParams(tau_g))
        assert calls[1] > sum(scene.weights.size for scene in scenes)  # nodes, then panel end points
        assert not any(singular.any() for _, _, singular in maps)

    def test_block_rows_equal_single_point_rows(self):
        # each row reduces alone, so neither the block nor its tiling moves a bit
        sources, amb = self.scene()
        params = KernelParams(1e-3)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, (37, 3)) + np.array([0.0, 0.0, 3.0])
        pts[7] = [1.0, 0.002, 0.0]  # near the orbit, where the coarse table splits
        nodes = node_pass(sources, amb, 0.0, params)
        assert _split_counts(nodes, 0, _tile(pts, nodes.coords)[2]).max() > 1
        phi, grad, _ = scene_potential_field(sources, amb, pts, 0.0, params)
        for k, r in enumerate(pts):
            phi1, grad1, _ = scene_potential_field(sources, amb, r[None, :], 0.0, params)
            assert phi1.tobytes() == phi[k:k + 1].tobytes()
            assert grad1.tobytes() == grad[k:k + 1].tobytes()

    def test_scene_matches_quad_of_the_parabola_frame(self):
        # in uniform g each source's free-fall frame is the parabola through
        # its state at t, so the retarded point at lag tau, shifted back to
        # the lab, is q(tau) = x(t - tau) + tau v(t) - tau^2 g / 2
        sources, amb = self.scene()
        tau_g, t = 1e-3, 0.0
        g = np.array([0.0, 0.0, -9.81])
        pts = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [1.5, -0.5, 1.0]])
        phi, grad, singular = scene_potential_field(sources, amb, pts, t, KernelParams(tau_g))
        assert singular.tolist() == [False, True, False]  # the middle point sits on the static source
        assert np.isnan(phi[1]) and np.isnan(grad[1]).all()
        for k in (0, 2):
            want = np.zeros(4)  # potential, then field x, y and z
            for src in sources:
                traj = src.trajectory

                def term(u, c, traj=traj, v=traj.velocity(t)):
                    tau = u * tau_g
                    d = pts[k] - (traj.position(t - tau) + tau * v - 0.5 * tau * tau * g)
                    dist = math.sqrt(d @ d)
                    return math.exp(-u) * (1.0 / dist if c == 0 else d[c - 1] / dist**3)

                for c in range(4):
                    val, err = quad(term, 0.0, 40.0, args=(c,), epsabs=0.0, epsrel=1e-13, limit=200,
                                    points=(1.0, 5.0, 15.0))
                    assert err <= 1e-12 * abs(val)
                    want[c] += -G * src.mass * val
            np.testing.assert_allclose(phi[k], want[0], rtol=1e-10)
            np.testing.assert_allclose(grad[k], want[1:], rtol=1e-9, atol=1e-22)

def one_time(sources, amb, r, t, params):
    """Potential and field of one point at one time, as a one-point field map sums it."""
    phi, grad = scene_potential_field(sources, amb, np.atleast_2d(r), t, params)[:2]
    return phi[0], grad[0]


class TestStackedSums:
    @settings(max_examples=15, deadline=None)
    @example(log_tau=-1.0, a=(0.0, 0.0, 0.0), r=(0.25, 0.25, 0.25))  # the field's sums need C-order tiles
    @given(
        log_tau=st.floats(-4.0, -1.0),
        a=st.tuples(*[st.floats(-0.02, 0.02)] * 3),
        r=st.tuples(*[st.floats(0.05, 0.3)] * 3),
    )
    def test_jump_values_equal_one_time_values(self, log_tau, a, r):
        # the CLI's default jump times: most have a table of their own, and
        # times of equal node count are summed together
        tau_g = 10.0 ** log_tau
        params = KernelParams(tau_g)
        src = Source(1.5, PiecewiseStatic([(-1.0 - params.t_max, (0, 0, 0)), (0.0, a)]))
        times = list(np.linspace(0.01 * tau_g, 40.0 * tau_g, 50))
        r = np.array(r)
        framed = evaluator._framed([src], ZeroField(), times, params)
        out = evaluator._checked(evaluator._values(framed, [r[None, :]] * len(times), times, params))
        assert len({table[0] for _, _, table in out}) < len(times)
        for t, (phi, grad, _) in zip(times, out):
            assert phi[0] == delayed_potential(src, ZeroField(), r, t, params)
            assert grad[0].tobytes() == delayed_field(src, ZeroField(), r, t, params).tobytes()
            alone_phi, alone_grad = one_time([src], ZeroField(), r, t, params)
            assert phi[0] == alone_phi and grad[0].tobytes() == alone_grad.tobytes()

    def test_stack_with_a_split_row(self):
        # four times of one table on the naive lab path; the first point of
        # the second time sits 1 mm from the path 2 tau_g back, on a 5 m
        # panel, and takes a split
        src = Source(1.0, UniformVelocity((0, 0, 0), (1000.0, 0, 0)))
        params = KernelParams(1e-3)
        times = [0.0, 1e-3, 2e-3, 3e-3]
        pts = [np.array([[0.0, 10.0, 0.0], [3.0, -7.0, 1.0]]),
               np.array([[-1.0, 1e-3, 0.0], [0.0, 10.0, 0.0]]),
               np.array([[5.0, 5.0, 5.0]]),
               np.array([[2.0, 0.0, 9.0]])]
        out = evaluator._checked(evaluator._values(evaluator._naive([src], len(times)), pts, times, params))
        assert [table[2] > 0 for _, _, table in out] == [False, True, False, False]
        for t, p, (phi, grad, _) in zip(times, pts, out):
            whole = evaluator._values(evaluator._naive([src]), [p], [t], params)[0]
            assert phi.tobytes() == whole[0].tobytes() and grad.tobytes() == whole[1].tobytes()
            for k, r in enumerate(p):
                assert phi[k] == delayed_potential_naive(src, r, t, params)

    def test_stack_with_a_guarded_row_raises_the_one_time_error(self):
        src = Source(1.0, Static((0, 0, 0)))
        params = KernelParams(1e-3)
        times = [0.0, 1e-3, 2e-3, 3e-3]
        pts = [np.array([[0.0, 1.0, 0.0]])] * 4
        pts[2] = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 1e-10]])
        with pytest.raises(SingularApproach) as alone:
            delayed_potential(src, ZeroField(), pts[2][1], times[2], params)
        out = evaluator._values(evaluator._framed([src], ZeroField(), times, params), pts, times, params)
        masks = [singular.tolist() for _, _, singular, _, _ in out]
        assert masks == [[False], [False], [False, True], [False]]
        with pytest.raises(SingularApproach) as stacked:
            evaluator._checked(out)
        assert str(stacked.value) == str(alone.value)
        assert (stacked.value.distance, stacked.value.when) == (alone.value.distance, alone.value.when)


def fast_orbit_map():
    """Sources, ambient, points and times of a map on the plane of a fast orbit, every time split."""
    sources = [
        Source(1.0, CircularOrbit((0, 0, 0), 1.0, 100.0)),
        Source(2.0, Static((0, 0, 0.5))),
    ]
    xs = np.linspace(-2.49, 2.51, 41)
    pts = np.column_stack([np.repeat(xs, 41), np.tile(xs, 41), np.zeros(41 * 41)])
    return sources, UniformField((0, 0, -9.81)), pts, [0.0, 1e-3]


class TestSinglePass:
    """Every point row is summed against its time's coarse nodes exactly once."""

    @staticmethod
    def coarse_rows(monkeypatch):
        rows = []
        original = evaluator._coarse_tile

        def counted(pts, *args):
            rows.append(len(pts))
            return original(pts, *args)

        monkeypatch.setattr(evaluator, "_coarse_tile", counted)
        return rows

    def test_split_map(self, monkeypatch):
        sources, amb, pts, times = fast_orbit_map()
        params = KernelParams(1e-3)
        out = _values(_framed(sources, amb, times, params), [pts] * len(times), times, params)
        assert all(split > 0 for *_, (_, _, split) in out)
        rows = self.coarse_rows(monkeypatch)
        maps = scene_potential_fields(sources, amb, pts, times, params)
        assert sum(rows) == len(times) * len(pts)
        for (phi, grad, singular), (phi1, grad1, singular1, _, _) in zip(maps, out):
            assert (phi.tobytes(), grad.tobytes()) == (phi1.tobytes(), grad1.tobytes())
            assert not singular.any() and not singular1.any()

    def test_jump_report(self, monkeypatch):
        rows = self.coarse_rows(monkeypatch)
        times = list(np.linspace(1e-4, 4e-2, 50))
        jump_scenario((0.0, 0.0, 0.01), 1e-3, 1.0, (0.1, 0.0, 0.0), times)
        assert sum(rows) == len(times)
        assert len(rows) < len(times)  # times of equal node count share tiles

    def test_stack_with_a_split_row(self, monkeypatch):
        src = Source(1.0, UniformVelocity((0, 0, 0), (1000.0, 0, 0)))
        params = KernelParams(1e-3)
        times = [0.0, 1e-3, 2e-3, 3e-3]
        pts = [np.array([[0.0, 10.0, 0.0], [3.0, -7.0, 1.0]]),
               np.array([[-1.0, 1e-3, 0.0], [0.0, 10.0, 0.0]]),
               np.array([[5.0, 5.0, 5.0]]),
               np.array([[2.0, 0.0, 9.0]])]
        rows = self.coarse_rows(monkeypatch)
        out = _values(evaluator._naive([src], len(times)), pts, times, params)
        assert [table[2] > 0 for *_, table in out] == [False, True, False, False]
        assert sum(rows) == 6 and len(rows) == 1


class TestMapEdges:
    def scene(self):
        sources = [Source(2.0, Static((0, 0, 0))), Source(1.0, CircularOrbit((0, 0, 0), 1.0, 10.0))]
        return sources, UniformField((0, 0, -9.81))

    def test_no_points(self):
        sources, amb = self.scene()
        out = scene_potential_fields(sources, amb, np.zeros((0, 3)), [0.0, 1e-3], KernelParams(1e-3))
        shapes = [(phi.shape, grad.shape, singular.shape) for phi, grad, singular in out]
        assert shapes == [((0,), (0, 3), (0,))] * 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_raise(self, bad):
        # such a point would pass the reach test or sum to 0.0, unmasked
        sources, amb = self.scene()
        pts = np.tile([0.5, 0.5, 2.0], (1000, 1))
        pts[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            scene_potential_fields(sources, amb, pts, [0.0, 1e-3], KernelParams(1e-3))
        with pytest.raises(ValueError, match="finite"):
            scene_potential_field(sources, amb, pts[7], 0.0, KernelParams(1e-3))

    @pytest.mark.parametrize("tau_g", [1e-3, 0.0], ids=["gauss_legendre", "newtonian"])
    def test_no_times(self, tau_g):
        sources, amb = self.scene()
        assert scene_potential_fields(sources, amb, [[0.0, 0.0, 1.0]], [], KernelParams(tau_g)) == []

    @pytest.mark.parametrize("tau_g", [1e-3, 0.0], ids=["gauss_legendre", "newtonian"])
    def test_no_sources(self, tau_g):
        _, amb = self.scene()
        out = scene_potential_fields([], amb, [[0.0, 0.0, 1.0], [1.0, 2.0, 3.0]], [0.0, 1e-3],
                                     KernelParams(tau_g))
        assert len(out) == 2
        for phi, grad, singular in out:
            assert phi.tolist() == [0.0, 0.0] and grad.tolist() == [[0.0] * 3] * 2
            assert not singular.any()

    def test_instantaneous_map_is_newton(self):
        # tau_g = 0: each source is its lab position at t, and the row sums
        # the two Newton terms in source order
        sources, amb = self.scene()
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 3.0], [0.5, -0.5, 0.25]])
        times = [0.0, 0.3]
        out = scene_potential_fields(sources, amb, pts, times, KernelParams(0.0))
        for t, (phi, grad, singular) in zip(times, out):
            terms = []
            for src in sources:
                d = pts - src.trajectory.position(t)
                r2 = np.square(d).sum(axis=1)
                inv = -G * src.mass / np.sqrt(r2)
                terms.append((inv, (inv / r2)[:, None] * d))
            # equal values; a zero component may differ in sign, as numpy's sum starts from +0.0
            np.testing.assert_array_equal(phi, terms[0][0] + terms[1][0])
            np.testing.assert_array_equal(grad, terms[0][1] + terms[1][1])
            assert not singular.any()

