"""End-to-end laboratory scenarios for the delayed-gravity law.

Each driver builds a small scene, runs the full framed evaluator, compares
the outcome against the leading-order analytic prediction, and returns a
ScenarioReport. Deviations are reported, never hidden: the drivers do not
tune anything to match.

Regime preconditions (probe distances large against the shift, slow orbits,
positive jump times) raise RegimeError up front; they mark parameter ranges
where the leading-order predictions themselves stop being meaningful.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .constants import G
from .errors import RegimeError, SingularApproach
from .evaluator import (
    KernelParams,
    Source,
    _adaptive_integral,
    _checked,
    _framed,
    _naive,
    _values,
)
from .frames import UniformField, ZeroField
from .kinematics import CircularOrbit, PiecewiseStatic, Static, UniformVelocity, as_vec3

__all__ = [
    "REL_DEVIATION_FLOOR",
    "ScenarioReport",
    "ShiftFit",
    "probe_shell",
    "fit_apparent_shift",
    "estimate_tau_g",
    "estimate_report",
    "static_shift_scenario",
    "orbit_scenario",
    "jump_scenario",
    "boost_demo",
]

REL_DEVIATION_FLOOR = 1e-300  # denominator floor for relative deviations

# Probe directions for shift fitting: the six axis points plus four upper
# diagonals. Spans all three axes with rank 3, isolating the dipole (shift)
# component of the probed potential.
_SHELL_DIRECTIONS = np.array(
    [
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
        [1.0, 1.0, 1.0],
        [-1.0, 1.0, 1.0],
        [1.0, -1.0, 1.0],
        [-1.0, -1.0, 1.0],
    ]
)
_SHELL_DIRECTIONS[6:] /= math.sqrt(3.0)


@dataclass
class ScenarioReport:
    """Inputs, predictions, simulated values and their deviations for one run."""

    scenario: str
    inputs: dict
    predicted: dict
    simulated: dict
    deviation: dict
    diagnostics: dict
    wall_time_s: float

    def to_dict(self):
        out = {
            "schema_version": 1,
            "scenario": self.scenario,
            "inputs": _jsonable(self.inputs),
            "predicted": _jsonable(self.predicted),
            "simulated": _jsonable(self.simulated),
            "deviation": _jsonable(self.deviation),
            "diagnostics": _jsonable(self.diagnostics),
            "relative_deviation_floor": REL_DEVIATION_FLOOR,
            "wall_time_s": float(self.wall_time_s),
        }
        # the estimator's single output doubles as a top-level field
        if "tau_g_s" in self.simulated:
            out["tau_g_s"] = float(self.simulated["tau_g_s"])
        return out


@dataclass
class ShiftFit:
    """Result of fitting an apparent point-source displacement."""

    delta: np.ndarray
    residual_rms: float
    probes: np.ndarray
    converged: bool
    iterations: int


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


def _deviation(predicted, simulated):
    absd = abs(float(simulated) - float(predicted))
    return {
        "absolute": absd,
        "relative": absd / max(abs(float(predicted)), REL_DEVIATION_FLOOR),
    }


def _kernel_diagnostics(params, n_evals, tables):
    """The largest node table the runner evaluated with, split panels included.

    ``tables`` holds one (nodes, panels, split panels) per evaluation;
    adaptive runs and the Newtonian limit have none.
    """
    nodes, segments, split = max(tables) if params.tau_g > 0.0 else (0, 0, 0)
    return {
        "kernel_nodes": nodes,
        "kernel_segments": segments,
        "split_panels": split,
        "potential_evaluations": n_evals,
    }


def _scenario_params(tau_g, params):
    tau_g = float(tau_g)
    if not (math.isfinite(tau_g) and tau_g >= 0.0):
        raise RegimeError("tau_g must be finite and >= 0")
    if params is None:
        return KernelParams(tau_g=tau_g)
    return replace(params, tau_g=tau_g)


def probe_shell(center, distance):
    """Ten probe points on a sphere around ``center``: axis pairs plus diagonals."""
    center = as_vec3(center, "center")
    distance = float(distance)
    if not distance > 0.0:
        raise ValueError("probe distance must be positive")
    return center + distance * _SHELL_DIRECTIONS


def fit_apparent_shift(potential_samples, mass, nominal_pos):
    """Fit the displacement delta that best explains probed potentials.

    Minimizes sum_i [phi_i - (-G*mass/|r_i - (nominal_pos + delta)|)]^2 by
    Gauss-Newton from delta = 0, on residuals scaled by 1/(G*mass) so the
    normal equations stay well conditioned for any mass. Needs at least 6
    probes whose directions from nominal_pos span all three axes.
    """
    samples = list(potential_samples)
    if len(samples) < 6:
        raise ValueError("need at least 6 probe samples")
    probes = np.array([as_vec3(p, f"probe {i}") for i, (p, _) in enumerate(samples)])
    phis = np.array([float(v) for _, v in samples])
    mass = float(mass)
    if not mass > 0.0:
        raise ValueError("mass must be positive")
    nominal = as_vec3(nominal_pos, "nominal_pos")

    offsets = probes - nominal
    norms = np.linalg.norm(offsets, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("probe coincides with the nominal position")
    if np.linalg.matrix_rank(offsets / norms[:, None]) < 3:
        raise ValueError("probe directions must span all three axes")

    scaled = phis / (G * mass)
    delta = np.zeros(3)
    converged = False
    iterations = 0
    for iterations in range(1, 51):
        u = probes - nominal - delta
        d = np.linalg.norm(u, axis=1)
        r = scaled + 1.0 / d
        jac = u / d[:, None] ** 3
        step = np.linalg.solve(jac.T @ jac, -jac.T @ r)
        delta = delta + step
        if float(np.linalg.norm(step)) < 1e-15:
            converged = True
            break
    u = probes - nominal - delta
    r = scaled + 1.0 / np.linalg.norm(u, axis=1)
    residual_rms = float(np.sqrt(np.mean(r**2))) * G * mass
    return ShiftFit(delta, residual_rms, probes, converged, iterations)


def estimate_tau_g(rho_nucl):
    """Order-of-magnitude delay time 1/sqrt(G * rho) for a mass density rho."""
    rho = float(rho_nucl)
    if not (math.isfinite(rho) and rho > 0.0):
        raise ValueError("density must be finite and positive")
    return 1.0 / math.sqrt(G * rho)


def estimate_report(rho_nucl):
    start = time.perf_counter()
    value = estimate_tau_g(rho_nucl)
    return ScenarioReport(
        scenario="estimate",
        inputs={"rho_kg_m3": float(rho_nucl)},
        predicted={"tau_g_s": {"value": value, "formula": "1 / sqrt(G * rho)"}},
        simulated={"tau_g_s": value},
        deviation={},
        diagnostics={"potential_evaluations": 0},
        wall_time_s=time.perf_counter() - start,
    )


def _potentials(source, ambient, points, times, params, tables, cache=None):
    """Potentials at points[i] at times[i], from one batch of frames; logs the tables in ``tables``.

    Each time has its own frame and node table, and its points their own
    evaluation. ``ambient`` None evaluates the naive form along the lab
    trajectory. ``cache`` shares node tables between calls.
    """
    if ambient is None:
        framed = [_naive(source, len(times))]
    else:
        framed = _framed([source], ambient, times, params)
    out = _checked(_values(framed, [np.atleast_2d(p) for p in points], times, params, cache))
    tables.extend(table for _, _, table in out)
    return [phi for phi, _, _ in out]


def static_shift_scenario(g_mag, tau_g, mass, probe_distances=(1.0,), *, params=None):
    """Supported static source in uniform downward gravity g.

    The frame free-falls while the source is held, so past source positions
    appear displaced upward; the fitted apparent shift is compared against
    the leading-order g * tau_g**2.
    """
    start = time.perf_counter()
    g_mag = float(g_mag)
    mass = float(mass)
    if not (math.isfinite(g_mag) and g_mag >= 0.0):
        raise RegimeError("g must be finite and >= 0")
    if not mass > 0.0:
        raise RegimeError("mass must be positive")
    distances = [float(d) for d in probe_distances]
    if not distances:
        raise RegimeError("need at least one probe distance")
    if any(not d > 0.0 for d in distances):
        raise RegimeError("probe distances must be positive")
    params = _scenario_params(tau_g, params)
    predicted_shift = g_mag * params.tau_g**2
    if min(distances) < 1e3 * predicted_shift:
        raise RegimeError(
            f"probe distance {min(distances):g} m is below 1e3 * g*tau_g^2 = "
            f"{1e3 * predicted_shift:g} m; the point-shift reading needs d >> g*tau_g^2"
        )

    source = Source(mass, Static((0.0, 0.0, 0.0)))
    ambient = UniformField((0.0, 0.0, -g_mag))
    tables = []
    shells = [probe_shell((0.0, 0.0, 0.0), d) for d in distances]
    phis = _potentials(source, ambient, shells, [0.0] * len(shells), params, tables)
    fits = [fit_apparent_shift(zip(probes, p), mass, (0.0, 0.0, 0.0)) for probes, p in zip(shells, phis)]

    up_shifts = [float(f.delta[2]) for f in fits]
    deviations = [_deviation(predicted_shift, s) for s in up_shifts]
    worst = max(deviations, key=lambda d: d["absolute"]) if predicted_shift else deviations[0]
    return ScenarioReport(
        scenario="static_shift",
        inputs={
            "g_m_s2": g_mag,
            "tau_g_s": params.tau_g,
            "mass_kg": mass,
            "probe_distances_m": distances,
        },
        predicted={"delta_up_m": {"value": predicted_shift, "formula": "g * tau_g**2"}},
        simulated={
            "delta_up_m": up_shifts,
            "delta_m": [f.delta for f in fits],
            "fit_residual_rms_J_per_kg": [f.residual_rms for f in fits],
            "fit_converged": [f.converged for f in fits],
        },
        deviation={"delta_up_m": worst, "delta_up_m_per_distance": deviations},
        diagnostics=_kernel_diagnostics(params, len(distances) * len(_SHELL_DIRECTIONS), tables),
        wall_time_s=time.perf_counter() - start,
    )


def orbit_scenario(radius, omega, tau_g, mass, *, probe_distance=1.0, params=None):
    """Uniformly revolving source, no ambient gravity.

    At the orbit center the potential magnitude exceeds G*mass/R by the
    factor 1 + omega**2 * tau_g**2; equivalently the source appears displaced
    toward the center by R * omega**2 * tau_g**2. Valid while omega * tau_g
    stays small; enforced at <= 0.1.
    """
    start = time.perf_counter()
    radius = float(radius)
    omega = float(omega)
    mass = float(mass)
    if not radius > 0.0:
        raise RegimeError("radius must be positive")
    if not (math.isfinite(omega) and omega >= 0.0):
        raise RegimeError("omega must be finite and >= 0")
    if not mass > 0.0:
        raise RegimeError("mass must be positive")
    params = _scenario_params(tau_g, params)
    if omega * params.tau_g > 0.1:
        raise RegimeError(
            f"omega * tau_g = {omega * params.tau_g:g} exceeds 0.1; the leading-order "
            "comparison needs a slow orbit"
        )
    if float(probe_distance) < 1e3 * radius * (omega * params.tau_g) ** 2:
        raise RegimeError(
            "probe distance is below 1e3 * radius*(omega*tau_g)^2; the point-shift "
            "reading needs probes far outside the apparent displacement"
        )

    traj = CircularOrbit((0.0, 0.0, 0.0), radius, omega)
    source = Source(mass, traj)
    ambient = ZeroField()
    t_eval = 0.0

    nominal = traj.position(t_eval)
    probes = probe_shell(nominal, probe_distance)
    tables = []
    phis = _potentials(source, ambient, [np.vstack([np.zeros(3), probes])], [t_eval], params, tables)[0]
    phi_center = float(phis[0])
    ratio_minus_1 = abs(phi_center) * radius / (G * mass) - 1.0
    fit = fit_apparent_shift(zip(probes, phis[1:]), mass, nominal)
    inward = -nominal / radius  # unit vector from the source toward the center
    delta_toward_center = float(fit.delta @ inward)
    tangential = fit.delta - (fit.delta @ inward) * inward

    pred_ratio = omega**2 * params.tau_g**2
    pred_shift = radius * pred_ratio
    return ScenarioReport(
        scenario="orbit",
        inputs={
            "radius_m": radius,
            "omega_rad_s": omega,
            "tau_g_s": params.tau_g,
            "mass_kg": mass,
            "probe_distance_m": float(probe_distance),
        },
        predicted={
            "center_ratio_minus_1": {"value": pred_ratio, "formula": "omega**2 * tau_g**2"},
            "delta_toward_center_m": {
                "value": pred_shift,
                "formula": "radius * omega**2 * tau_g**2",
            },
        },
        simulated={
            "center_potential_J_per_kg": phi_center,
            "center_ratio_minus_1": ratio_minus_1,
            "delta_toward_center_m": delta_toward_center,
            "delta_m": fit.delta,
            "delta_tangential_m": float(np.linalg.norm(tangential)),
            "fit_residual_rms_J_per_kg": fit.residual_rms,
            "fit_converged": fit.converged,
        },
        deviation={
            "center_ratio_minus_1": _deviation(pred_ratio, ratio_minus_1),
            "delta_toward_center_m": _deviation(pred_shift, delta_toward_center),
        },
        diagnostics=_kernel_diagnostics(params, 1 + len(_SHELL_DIRECTIONS), tables),
        wall_time_s=time.perf_counter() - start,
    )


def jump_scenario(a, tau_g, mass, r, times, *, params=None):
    """Source suddenly displaced from the origin to ``a`` at t = 0.

    For each positive time the simulated potential at ``r`` is compared to
    the exact mixture of old and new Newton potentials with weights
    exp(-t/tau_g) and 1 - exp(-t/tau_g).
    """
    start = time.perf_counter()
    a = as_vec3(a, "a")
    r = as_vec3(r, "r")
    mass = float(mass)
    if not mass > 0.0:
        raise RegimeError("mass must be positive")
    times = [float(t) for t in np.atleast_1d(np.asarray(times, dtype=float))]
    if not times:
        raise RegimeError("need at least one evaluation time")
    if any(not t > 0.0 for t in times):
        raise RegimeError("evaluation times must be positive (the jump happens at t = 0)")
    params = _scenario_params(tau_g, params)
    d_old = float(np.linalg.norm(r))
    d_new = float(np.linalg.norm(r - a))
    if d_old <= params.softening_eps or d_new <= params.softening_eps:
        raise RegimeError("probe must stay clear of both rest positions")

    # floor epoch sits below every look-back window; it only anchors the
    # pre-jump position
    floor_time = -(1.0 + params.t_max)
    traj = PiecewiseStatic(((floor_time, (0.0, 0.0, 0.0)), (0.0, a)))
    source = Source(mass, traj)
    ambient = ZeroField()

    tables = []
    sims = [float(phi[0]) for phi in _potentials(source, ambient, [r] * len(times), times, params, tables)]
    preds = []
    for t in times:
        w_old = math.exp(-t / params.tau_g) if params.tau_g > 0.0 else 0.0
        preds.append(w_old * (-G * mass / d_old) + (1.0 - w_old) * (-G * mass / d_new))
    devs = [_deviation(p, s) for p, s in zip(preds, sims)]
    worst = max(devs, key=lambda d: d["relative"])
    return ScenarioReport(
        scenario="jump",
        inputs={
            "a_m": a,
            "tau_g_s": params.tau_g,
            "mass_kg": mass,
            "probe_m": r,
            "times_s": times,
        },
        predicted={
            "potentials_J_per_kg": {
                "value": preds,
                "formula": "exp(-t/tau_g)*(-G*M/|r|) + (1-exp(-t/tau_g))*(-G*M/|r-a|)",
            }
        },
        simulated={"potentials_J_per_kg": sims},
        deviation={
            "potentials_J_per_kg": worst,
            "max_relative": worst["relative"],
            "per_time_relative": [d["relative"] for d in devs],
        },
        diagnostics=_kernel_diagnostics(params, len(times), tables),
        wall_time_s=time.perf_counter() - start,
    )


def boost_demo(v, tau_g, mass, r, *, params=None):
    """Same physical scene, two descriptions: at rest, and boosted by -v.

    The naive evaluator applied to the boosted description disagrees with the
    rest value by a finite factor (predicted here by an independent adaptive
    quadrature of the averaged boosted Newton kernel); the framed evaluator
    gives the rest value in both descriptions.
    """
    start = time.perf_counter()
    v = as_vec3(v, "v")
    r = as_vec3(r, "r")
    mass = float(mass)
    if not mass > 0.0:
        raise RegimeError("mass must be positive")
    params = _scenario_params(tau_g, params)
    speed = float(np.linalg.norm(v))
    dist = float(np.linalg.norm(r))
    if dist <= params.softening_eps:
        raise RegimeError("probe must stay clear of the source")
    if speed > 0.0 and params.tau_g > 0.0:
        scale_ratio = speed * params.tau_g / dist
        if not 1e-6 <= scale_ratio <= 1e6:
            raise RegimeError(
                f"|v|*tau_g / |r| = {scale_ratio:g} is outside [1e-6, 1e6]; the "
                "comparison is numerically meaningless at that separation of scales"
            )

    rest_source = Source(mass, Static((0.0, 0.0, 0.0)))
    boosted_source = Source(mass, UniformVelocity((0.0, 0.0, 0.0), -v))
    ambient = ZeroField()
    t_eval = 0.0

    tables, cache = [], {}
    rest_naive, boosted_naive, rest_framed, boosted_framed = (
        float(_potentials(src, amb, [r], [t_eval], params, tables, cache)[0][0])
        for src, amb in ((rest_source, None), (boosted_source, None),
                         (rest_source, ambient), (boosted_source, ambient)))

    naive_ratio = boosted_naive / rest_naive
    framed_ratio = boosted_framed / rest_framed
    pred_naive_ratio = _boosted_kernel_average(v, params, r)

    return ScenarioReport(
        scenario="boost",
        inputs={"v_m_s": v, "tau_g_s": params.tau_g, "mass_kg": mass, "probe_m": r},
        predicted={
            "naive_over_rest": {
                "value": pred_naive_ratio,
                "formula": "E_u[|r| / |r - v*tau_g*u|], u ~ Exp(1), by adaptive quadrature",
            },
            "framed_over_rest": {
                "value": 1.0,
                "formula": "free-fall framing removes the boost dependence",
            },
        },
        simulated={
            "rest_J_per_kg": rest_naive,
            "naive_boosted_J_per_kg": boosted_naive,
            "framed_boosted_J_per_kg": boosted_framed,
            "framed_rest_J_per_kg": rest_framed,
            "naive_over_rest": naive_ratio,
            "framed_over_rest": framed_ratio,
        },
        deviation={
            "naive_over_rest": _deviation(pred_naive_ratio, naive_ratio),
            "framed_over_rest": _deviation(1.0, framed_ratio),
        },
        diagnostics=_kernel_diagnostics(params, 4, tables),
        wall_time_s=time.perf_counter() - start,
    )


def _boosted_kernel_average(v, params, r):
    """E_u[|r| / |r - v*tau_g*u|] for u ~ Exp(1), by adaptive Simpson.

    Written directly from the averaged boosted Newton kernel, independent of
    the node-table evaluator, so the two routes cross-check each other.
    """
    if params.tau_g == 0.0:
        return 1.0
    s = np.asarray(v * params.tau_g, dtype=float)
    dist = math.hypot(*(float(c) for c in r))
    u_max = params.t_max_factor
    r_col, s_col = r[:, None], s[:, None]

    def f(u):
        x, y, z = r_col - s_col * u
        d = np.hypot(np.hypot(x, y), z)
        if not d.all():
            lag = float(u[np.argmin(d)]) * params.tau_g
            raise SingularApproach(f"probe on the boosted source's path {lag:.3e} s back", distance=0.0)
        return np.exp(-u) * dist / d

    # split at u = 1, where the exponential's scale turns over, and at lags
    # u0 +- w 4^k below that scale, graded toward the closest approach u0
    # from the width w of its peak. Each segment then sees one scale, and
    # the first estimate, which sets the tolerance, is close to the
    # integral; split at 1 alone, a perpendicular |v| tau_g / |r| of 1e6
    # starts 10^4 times too high and misses by 8e-12. A path through the
    # probe (w = 0) gets no grading.
    speed2 = float(s @ s)
    cuts = {1.0}
    if speed2 > 0.0:
        u0 = float(s @ r) / speed2
        steps = float(np.linalg.norm(np.cross(r, s))) / speed2 * 4.0 ** np.arange(64)
        steps = steps[(steps > 0.0) & (steps < 1.0)]
        cuts.update(float(u) for u in np.concatenate([u0 - steps, u0 + steps]) if 0.0 < u < u_max)
    rel_tol = getattr(params.quadrature, "rel_tol", 1e-13)
    total = _adaptive_integral(f, [0.0, *sorted(cuts), u_max], min(rel_tol, 1e-13))
    return total / (1.0 - math.exp(-u_max))
