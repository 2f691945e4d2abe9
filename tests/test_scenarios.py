import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import struve, y0

import lazy_newton.evaluator as evaluator
from lazy_newton.constants import G
from lazy_newton.errors import AdaptiveBudgetExceeded, LazyNewtonError, RegimeError
from lazy_newton.evaluator import KernelParams, Source, delayed_potential, kernel_weights
from lazy_newton.frames import UniformField
from lazy_newton.kinematics import Static, UniformAcceleration
from lazy_newton.scenarios import (
    ScenarioReport,
    _adaptive_integral,
    _boosted_kernel_average,
    boost_demo,
    estimate_report,
    estimate_tau_g,
    fit_apparent_shift,
    jump_scenario,
    orbit_scenario,
    probe_shell,
    static_shift_scenario,
)


class TestProbeShell:
    def test_geometry(self):
        shell = probe_shell((1.0, 2.0, 3.0), 0.25)
        assert shell.shape == (10, 3)
        dists = np.linalg.norm(shell - [1.0, 2.0, 3.0], axis=1)
        np.testing.assert_allclose(dists, 0.25, rtol=1e-15)
        # contains the six axis probes
        for axis in np.vstack([np.eye(3), -np.eye(3)]):
            assert np.any(np.all(np.isclose(shell, [1.0, 2.0, 3.0] + 0.25 * axis), axis=1))

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            probe_shell((0, 0, 0), 0.0)


class TestShiftFit:
    def test_recovers_exact_displacement(self):
        mass = 7.0
        delta = np.array([2e-6, -1e-6, 3e-6])
        probes = probe_shell((0.0, 0.0, 0.0), 1.0)
        samples = [(p, -G * mass / np.linalg.norm(p - delta)) for p in probes]
        fit = fit_apparent_shift(samples, mass, (0.0, 0.0, 0.0))
        assert fit.converged
        np.testing.assert_allclose(fit.delta, delta, atol=1e-12)
        assert fit.residual_rms < 1e-12 * G * mass

    def test_needs_six_samples(self):
        probes = probe_shell((0, 0, 0), 1.0)[:5]
        samples = [(p, -G / np.linalg.norm(p)) for p in probes]
        with pytest.raises(ValueError):
            fit_apparent_shift(samples, 1.0, (0, 0, 0))

    def test_needs_spanning_directions(self):
        # six probes all in the z = 0 plane cannot pin the vertical shift
        angles = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
        probes = np.stack([np.cos(angles), np.sin(angles), np.zeros(6)], axis=1)
        samples = [(p, -G / np.linalg.norm(p)) for p in probes]
        with pytest.raises(ValueError):
            fit_apparent_shift(samples, 1.0, (0, 0, 0))

    def test_rejects_probe_on_nominal(self):
        probes = [np.zeros(3)] + list(probe_shell((0, 0, 0), 1.0))
        samples = [(p, -1.0) for p in probes]
        with pytest.raises(ValueError):
            fit_apparent_shift(samples, 1.0, (0, 0, 0))


class TestEstimate:
    def test_nuclear_density_value(self):
        tau = estimate_tau_g(2.3e17)
        assert 2.5e-4 <= tau <= 2.6e-4
        assert tau == pytest.approx(1.0 / math.sqrt(G * 2.3e17), rel=1e-15)

    def test_density_scaling(self):
        # 100x the density shortens the delay tenfold
        assert estimate_tau_g(2.3e19) == pytest.approx(0.1 * estimate_tau_g(2.3e17), rel=1e-14)

    def test_rejects_nonpositive_density(self):
        for rho in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                estimate_tau_g(rho)

    def test_report_lifts_tau_g(self):
        report = estimate_report(2.3e17)
        out = report.to_dict()
        assert out["schema_version"] == 1
        assert out["tau_g_s"] == pytest.approx(estimate_tau_g(2.3e17), rel=1e-15)
        json.dumps(out)


class TestStaticShift:
    def test_matches_universal_height(self):
        report = static_shift_scenario(9.81, 1e-3, 1.0)
        assert report.predicted["delta_up_m"]["value"] == pytest.approx(9.81e-6, rel=1e-12)
        assert report.deviation["delta_up_m"]["relative"] < 1e-2
        assert all(report.simulated["fit_converged"])

    def test_quadratic_tau_scaling(self):
        small = static_shift_scenario(9.81, 5e-4, 1.0).simulated["delta_up_m"][0]
        big = static_shift_scenario(9.81, 1e-3, 1.0).simulated["delta_up_m"][0]
        assert big / small == pytest.approx(4.0, rel=1e-2)

    def test_newtonian_limit_has_no_shift(self):
        report = static_shift_scenario(9.81, 0.0, 1.0)
        assert abs(report.simulated["delta_up_m"][0]) < 1e-12

    def test_free_fall_replacement_removes_shift(self):
        # same field, but the source now falls with the frame: no shift left
        g = np.array([0.0, 0.0, -9.81])
        src = Source(1.0, UniformAcceleration((0, 0, 0), (0, 0, 0), g))
        params = KernelParams(1e-3)
        probes = probe_shell((0.0, 0.0, 0.0), 1.0)
        samples = [(p, delayed_potential(src, UniformField(g), p, 0.0, params)) for p in probes]
        fit = fit_apparent_shift(samples, 1.0, (0.0, 0.0, 0.0))
        assert np.linalg.norm(fit.delta) < 1e-12

    def test_regime_gates(self):
        with pytest.raises(RegimeError):
            static_shift_scenario(-9.81, 1e-3, 1.0)
        with pytest.raises(RegimeError):
            static_shift_scenario(9.81, 1e-3, 0.0)
        with pytest.raises(RegimeError):
            static_shift_scenario(9.81, 1e-3, 1.0, probe_distances=())
        with pytest.raises(RegimeError):
            static_shift_scenario(9.81, 1e-3, 1.0, probe_distances=(1e-4,))
        with pytest.raises(RegimeError):
            static_shift_scenario(9.81, -1e-3, 1.0)


class TestOrbit:
    def test_center_ratio_and_radial_shift(self):
        report = orbit_scenario(1.0, 10.0, 1e-3, 1.0)
        ratio = report.simulated["center_ratio_minus_1"]
        assert 0.99e-4 <= ratio <= 1.01e-4
        assert report.simulated["delta_toward_center_m"] == pytest.approx(1e-4, rel=1e-2)
        assert report.simulated["delta_tangential_m"] < 1e-2 * 1e-4

    def test_static_limit(self):
        report = orbit_scenario(1.0, 0.0, 1e-3, 1.0)
        assert abs(report.simulated["center_ratio_minus_1"]) < 1e-12
        assert abs(report.simulated["delta_toward_center_m"]) < 1e-12

    def test_quadratic_omega_scaling(self):
        one = orbit_scenario(1.0, 10.0, 1e-3, 1.0).simulated["center_ratio_minus_1"]
        two = orbit_scenario(1.0, 20.0, 1e-3, 1.0).simulated["center_ratio_minus_1"]
        assert two / one == pytest.approx(4.0, rel=1e-2)

    def test_regime_gates(self):
        with pytest.raises(RegimeError):
            orbit_scenario(1.0, 200.0, 1e-3, 1.0)  # omega * tau_g = 0.2
        with pytest.raises(RegimeError):
            orbit_scenario(0.0, 10.0, 1e-3, 1.0)
        with pytest.raises(RegimeError):
            orbit_scenario(1.0, 10.0, 1e-3, -1.0)
        with pytest.raises(RegimeError):
            orbit_scenario(1.0, 0.1, 1.0, 1.0, probe_distance=1e-3)


class TestJump:
    def test_exponential_mixture(self):
        times = np.linspace(0.01e-3, 40e-3, 50)
        report = jump_scenario((0, 0, 0.01), 1e-3, 1.0, (0, 0.1, 0), times)
        assert report.deviation["max_relative"] < 1e-12
        assert len(report.deviation["per_time_relative"]) == 50

    def test_early_and_late_limits(self):
        tau_g = 1e-3
        report = jump_scenario((0, 0, 0.01), tau_g, 1.0, (0, 0.1, 0), [1e-8, 40e-3])
        early, late = report.simulated["potentials_J_per_kg"]
        phi_old = -G / 0.1
        phi_new = -G / np.linalg.norm([0.0, 0.1, -0.01])
        assert early == pytest.approx(phi_old, rel=1e-4)
        assert late == pytest.approx(phi_new, rel=1e-6)

    def test_newtonian_limit(self):
        report = jump_scenario((0, 0, 0.01), 0.0, 1.0, (0, 0.1, 0), [1e-9, 1.0])
        phi_new = -G / np.linalg.norm([0.0, 0.1, -0.01])
        for phi in report.simulated["potentials_J_per_kg"]:
            assert phi == pytest.approx(phi_new, rel=1e-14)

    def test_regime_gates(self):
        with pytest.raises(RegimeError):
            jump_scenario((0, 0, 0.01), 1e-3, 1.0, (0, 0.1, 0), [])
        with pytest.raises(RegimeError):
            jump_scenario((0, 0, 0.01), 1e-3, 1.0, (0, 0.1, 0), [0.0])
        with pytest.raises(RegimeError):
            jump_scenario((0, 0, 0.01), 1e-3, 1.0, (0, 0.1, 0), [-1e-3, 1e-3])
        with pytest.raises(RegimeError):
            jump_scenario((0, 0, 0.01), 1e-3, 1.0, (0, 0, 0.01), [1e-3])
        with pytest.raises(RegimeError):
            jump_scenario((0, 0, 0.01), 1e-3, 0.0, (0, 0.1, 0), [1e-3])


class TestBoost:
    def test_rest_description_is_trivial(self):
        report = boost_demo((0.0, 0.0, 0.0), 1e-3, 1.0, (0, 1.0, 0))
        assert report.simulated["naive_over_rest"] == 1.0
        assert report.simulated["framed_over_rest"] == 1.0
        assert report.deviation["naive_over_rest"]["absolute"] < 1e-12

    def test_perpendicular_unit_lag(self):
        report = boost_demo((1000.0, 0.0, 0.0), 1e-3, 1.0, (0, 1.0, 0))
        naive = report.simulated["naive_over_rest"]
        closed_form = math.pi / 2.0 * (struve(0, 1.0) - y0(1.0))
        assert naive == pytest.approx(closed_form, abs=1e-12)
        # in-report prediction comes from an adaptive quadrature, not the eval
        assert report.deviation["naive_over_rest"]["relative"] < 1e-9
        assert report.deviation["framed_over_rest"]["absolute"] == 0.0

    def test_framed_invariance_across_speeds(self):
        for speed in (0.0, 1.0, 1e3, 1e6):
            report = boost_demo((speed, 0.0, 0.0), 1e-3, 1.0, (0, 1.0, 0))
            assert report.deviation["framed_over_rest"]["relative"] <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        log_ratio=st.floats(-6.0, 6.0),
        dist=st.floats(0.5, 2.0),
        angles=st.tuples(st.floats(0.0, math.pi), *[st.floats(0.0, 2.0 * math.pi)] * 2),
        log_tau=st.floats(-4.0, -2.0),
    )
    def test_prediction_matches_quad_across_the_gate(self, log_ratio, dist, angles, log_tau):
        # a boost perpendicular to the probe, |v| tau_g / |r| anywhere in the
        # regime gate: E_u[1 / sqrt(1 + (ratio u)^2)] by scipy's quad, cut
        # where the integrand turns over
        theta, phi, psi = angles
        n = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
        e1 = np.cross(n, [1.0, 0.0, 0.0] if abs(n[0]) < 0.9 else [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        perp = math.cos(psi) * e1 + math.sin(psi) * np.cross(n, e1)
        params = KernelParams(10.0 ** log_tau)
        ratio = 10.0 ** log_ratio
        v = perp * (ratio * dist / params.tau_g)
        ratio = float(np.linalg.norm(v)) * params.tau_g / dist
        u_max = params.t_max_factor
        cuts = sorted({c for c in (1.0 / ratio, 10.0 / ratio, 1.0) if c < u_max})
        want, err = quad(lambda u: math.exp(-u) / math.sqrt(1.0 + (ratio * u) ** 2), 0.0, u_max,
                         points=cuts, epsabs=0.0, epsrel=2e-14, limit=500)
        assert err < 1e-13 * want
        want /= -math.expm1(-u_max)
        got = _boosted_kernel_average(v, params, dist * n)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "v, tau_g, r, bits",
        [
            ((1000.0, 0.0, 0.0), 1e-3, (0.0, 1.0, 0.0), "0.7546100257709745"),
            ((1e9, 0.0, 0.0), 1e-3, (0.0, 1.0, 0.0), "1.3931443073618955e-05"),
            ((100.0, 1000.0, 0.0), 1e-2, (0.0, 20.0, 0.0), "2.2813854779342733"),
            ((-3e3, 1.5e3, 2e3), 2.5e-4, (0.3, -0.2, 0.9), "0.7961262858681454"),
        ],
        # a perpendicular unit lag; the gate's |v| tau_g / |r| = 1e6; cuts
        # graded toward a closest approach at u0 = 1.98; an oblique boost
        ids=["unit_lag", "ratio_1e6", "graded", "oblique"],
    )
    def test_prediction_bits_are_fixed(self, v, tau_g, r, bits):
        # evaluating by levels keeps the recursive rule's tree and order of
        # additions, so the prediction is fixed to the bit
        assert repr(_boosted_kernel_average(np.array(v), KernelParams(tau_g), np.array(r))) == bits

    def test_scale_separation_gates(self):
        with pytest.raises(RegimeError):
            boost_demo((1e12, 0, 0), 1e-3, 1.0, (0, 1.0, 0))
        with pytest.raises(RegimeError):
            boost_demo((1e-6, 0, 0), 1e-3, 1.0, (0, 10.0, 0))
        with pytest.raises(RegimeError):
            boost_demo((1000.0, 0, 0), 1e-3, 0.0, (0, 0, 0))


class TestAdaptiveBudget:
    def test_unresolvable_integrand_raises_named_error(self):
        # 1/|u - c| is not integrable, so refinement never converges
        def f(u):
            return 1.0 / np.abs(u - 0.3 * math.pi)

        with pytest.raises(AdaptiveBudgetExceeded) as exc:
            _adaptive_integral(f, [0.0, 1.0, 2.0], 1e-12)
        assert isinstance(exc.value, LazyNewtonError)
        assert isinstance(exc.value, RuntimeError)


class TestReportShape:
    def test_to_dict_round_trips_through_json(self):
        report = orbit_scenario(1.0, 10.0, 1e-3, 1.0)
        out = report.to_dict()
        assert out["schema_version"] == 1
        for key in ("scenario", "inputs", "predicted", "simulated", "deviation", "diagnostics"):
            assert key in out
        assert out["wall_time_s"] >= 0.0
        parsed = json.loads(json.dumps(out))
        assert parsed["scenario"] == "orbit"
        assert isinstance(parsed["simulated"]["delta_m"], list)

    def test_dataclass_fields(self):
        report = jump_scenario((0, 0, 0.01), 1e-3, 1.0, (0, 0.1, 0), [1e-3])
        assert isinstance(report, ScenarioReport)
        assert report.diagnostics["kernel_nodes"] > 0
        assert report.diagnostics["potential_evaluations"] == 1


class TestWorkPerEvaluation:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"build_frames": 0, "_kernel_tables": 0}
        for name in counts:
            original = getattr(evaluator, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(evaluator, name, counted)
        return counts

    def test_static_shift_prepares_once(self, calls):
        static_shift_scenario(9.81, 1e-3, 1.0, probe_distances=(1.0,))
        assert calls == {"build_frames": 1, "_kernel_tables": 1}

    def test_orbit_prepares_once(self, calls):
        orbit_scenario(1.0, 10.0, 1e-3, 1.0)
        assert calls == {"build_frames": 1, "_kernel_tables": 1}

    def test_jump_frames_every_time_in_one_call(self, calls):
        # 25 times inside the 40 tau_g window split their tables at their own
        # jump lag; the 25 past it have no breakpoint and the same table,
        # built again. All 50 tables come from one pass.
        tau_g = 1e-3
        times = np.concatenate([np.linspace(0.5, 39.5, 25), np.linspace(41.0, 65.0, 25)]) * tau_g
        report = jump_scenario((0, 0, 0.01), tau_g, 1.0, (0, 0.1, 0), times)
        assert report.diagnostics["potential_evaluations"] == 50
        assert calls == {"build_frames": 1, "_kernel_tables": 1}

    def test_boost_builds_one_table_pass_per_evaluation(self, calls):
        # the naive and framed, rest and boosted evaluations each take their
        # own node pass; only the two framed ones build frames
        boost_demo((1000.0, 0.0, 0.0), 1e-3, 1.0, (0, 1.0, 0))
        assert calls == {"build_frames": 2, "_kernel_tables": 4}


class TestDiagnostics:
    def test_jump_reports_the_table_split_at_the_jump(self):
        params = KernelParams(1e-3)
        report = jump_scenario((0, 0, 0.01), 1e-3, 1.0, (0, 0.1, 0), [0.7e-3])
        used = kernel_weights(params, [0.7e-3])
        assert used.n_segments == 9
        assert report.diagnostics["kernel_segments"] == 9
        assert report.diagnostics["kernel_nodes"] == len(used)
        assert report.diagnostics["potential_evaluations"] == 1

    def test_largest_table_over_times(self):
        # t = 40 tau_g puts the jump at the window's edge: no split, 8 segments
        report = jump_scenario((0, 0, 0.01), 1e-3, 1.0, (0, 0.1, 0), [0.7e-3, 4e-2])
        assert report.diagnostics["kernel_segments"] == 9

    def test_static_report_splits_no_panel(self):
        report = static_shift_scenario(9.81, 1e-3, 1.0)
        assert report.diagnostics["split_panels"] == 0
        assert report.diagnostics["kernel_nodes"] == len(kernel_weights(KernelParams(1e-3)))

    def test_probe_near_the_old_rest_position_splits_no_panel(self):
        # both sides of the jump are static: no panel holds a path for the
        # probe, 3 mm from the old position, to come close to
        report = jump_scenario((0, 0, 0.01), 1e-3, 1.0, (0.003, 0, 0), [0.7e-3])
        assert report.diagnostics["split_panels"] == 0
        assert report.diagnostics["kernel_segments"] == 9

    def test_naive_boost_splits_panels_near_the_path(self):
        # |v| tau_g = |r|: the lab past path passes 1 m from the probe along
        # a 5 m first panel
        report = boost_demo((1000.0, 0, 0), 1e-3, 1.0, (0, 1.0, 0))
        diagnostics = report.diagnostics
        assert diagnostics["split_panels"] > 0
        assert diagnostics["kernel_segments"] > kernel_weights(KernelParams(1e-3)).n_segments
        # the first panels split into sub-panels of the full order 32; the
        # others keep their graded orders
        sizes = np.diff(kernel_weights(KernelParams(1e-3)).starts)
        split = diagnostics["split_panels"]
        sub_panels = diagnostics["kernel_segments"] - (sizes.size - split)
        assert diagnostics["kernel_nodes"] == 32 * sub_panels + sizes[split:].sum()

    def test_newtonian_limit_has_no_table(self):
        report = static_shift_scenario(9.81, 0.0, 1.0)
        assert report.diagnostics["kernel_nodes"] == 0
        assert report.diagnostics["kernel_segments"] == 0
