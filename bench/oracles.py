"""Independent oracles for every benchmark op.

Nothing here imports the library: source paths, the free-fall frame and the
predictions are written out again from their closed forms, and integrals go
through scipy.integrate.quad. Each check returns a list of problems; an empty
list means the op's output is correct.
"""

import json
import math

import numpy as np
from scipy.integrate import quad

from inputs import G

COLUMNS = ["t", "x", "y", "z", "phi", "gx", "gy", "gz"]

# acceptance-criteria tolerances (criteria 1 to 6)
MAP_REL_TOL = 1e-10  # criterion 4; also used for the quadrature oracle
JUMP_REL_TOL = 1e-12  # criterion 1
SHIFT_REL_TOL = 1e-2  # criteria 2 and 3
NAIVE_REL_TOL = 1e-6  # criterion 5, naive ratio against its prediction
FRAMED_REL_TOL = 1e-10  # criterion 5, framed ratio against 1
PREDICTION_REL_TOL = 1e-9  # printed boost prediction against scipy quad
ESTIMATE_REL_TOL = 1e-12

DEFAULT_RHO = 2.3e17  # kg/m^3, the CLI's default density; its tau_g is the default


# ---------------------------------------------------------------------------
# source paths, written from the scene document

def _state(traj, s):
    """Position and velocity of a static or z-normal circular source at time s."""
    if traj["kind"] == "static":
        return np.asarray(traj["position"], dtype=float), np.zeros(3)
    if traj["kind"] == "circular_orbit" and list(traj.get("normal", [0, 0, 1])) == [0, 0, 1]:
        c = np.asarray(traj["center"], dtype=float)
        rad, w = traj["radius"], traj["omega"]
        th = w * s + traj.get("phase", 0.0)
        pos = c + rad * np.array([math.cos(th), math.sin(th), 0.0])
        vel = rad * w * np.array([-math.sin(th), math.cos(th), 0.0])
        return pos, vel
    raise ValueError(f"oracle has no closed form for trajectory {traj!r}")


def grid_points(grid):
    """Lattice points in row order, last axis fastest."""
    pts = np.asarray(grid["origin"], dtype=float)[None, :]
    for axis in grid["axes"]:
        d = np.asarray(axis["direction"], dtype=float)
        d = d / np.linalg.norm(d)
        off = np.linspace(0.0, axis["extent_m"], axis["count"])[:, None] * d
        pts = (pts[:, None, :] + off[None, :, :]).reshape(-1, 3)
    return pts


def parse_rows(text, fmt):
    """(n, 8) float array from a field map in CSV or JSON; null reads as nan."""
    if fmt == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != ",".join(COLUMNS):
            raise ValueError("CSV header mismatch")
        return np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(-1, 8)
    doc = json.loads(text)
    if doc.get("columns") != COLUMNS:
        raise ValueError("JSON columns mismatch")
    rows = [[math.nan if v is None else float(v) for v in row] for row in doc["rows"]]
    return np.array(rows, dtype=float).reshape(-1, 8)


def check_lattice(rows, grid):
    """Row count, times and coordinates must follow the grid document."""
    pts = grid_points(grid)
    times = grid["times"]
    if rows.shape[0] != len(times) * pts.shape[0]:
        return [f"{rows.shape[0]} rows, expected {len(times) * pts.shape[0]}"]
    want_t = np.repeat(np.asarray(times, dtype=float), pts.shape[0])
    want_xyz = np.tile(pts, (len(times), 1))
    if not np.allclose(rows[:, 0], want_t, rtol=0.0, atol=1e-12):
        return ["time column does not follow the grid"]
    if not np.allclose(rows[:, 1:4], want_xyz, rtol=0.0, atol=1e-12):
        return ["coordinates do not follow the grid"]
    return []


def _compare(row, phi, g, tol):
    """Problems when a row's potential or field misses the oracle by more than tol."""
    out = []
    if not abs(row[4] - phi) <= tol * abs(phi):
        out.append(f"phi {row[4]!r} vs oracle {phi!r} at t={row[0]!r}")
    if not np.linalg.norm(row[5:8] - g) <= tol * np.linalg.norm(g):
        out.append(f"field {row[5:8].tolist()} vs oracle {g.tolist()} at t={row[0]!r}")
    return out


# ---------------------------------------------------------------------------
# fieldmap-uniform: quadrature of the kernel integral in the parabola frame

def kernel_integral(scene, r, t):
    """Potential and field at (r, t) by scipy quad, for a uniform or zero ambient.

    In the source's free-fall frame (the exact parabola y(s) = x(t) + (s-t) v(t)
    + (s-t)^2 g / 2) the retarded point at lag tau, shifted back to the lab,
    is q(tau) = x(t - tau) + tau v(t) - tau^2 g / 2.
    """
    amb = scene["ambient"]
    g_amb = np.zeros(3) if amb["kind"] == "zero" else np.asarray(amb["g"], dtype=float)
    if amb["kind"] not in ("zero", "uniform"):
        raise ValueError("kernel_integral needs a zero or uniform ambient")
    tau_g = scene["tau_g_s"]
    u_max = scene.get("t_max_factor", 40.0)
    r = np.asarray(r, dtype=float)
    phi = 0.0
    field = np.zeros(3)
    for src in scene["sources"]:
        traj = src["trajectory"]
        _, v_t = _state(traj, t)

        def sep(u, traj=traj, v_t=v_t):
            tau = u * tau_g
            x, _ = _state(traj, t - tau)
            return r - (x + tau * v_t - 0.5 * tau * tau * g_amb)

        def part(u, k):
            d = sep(u)
            dist = math.sqrt(d @ d)
            return math.exp(-u) * (1.0 / dist if k < 0 else d[k] / dist**3)

        gm = -G * src["mass_kg"]
        for k in (-1, 0, 1, 2):
            val, _ = quad(part, 0.0, u_max, args=(k,), epsabs=0.0, epsrel=1e-13,
                          limit=200, points=(1.0, 5.0, 15.0))
            if k < 0:
                phi += gm * val
            else:
                field[k] += gm * val
    return phi, field


def check_uniform_rows(rows, scene, indices):
    """Sampled rows against the quadrature oracle."""
    out = []
    for i in indices:
        phi, g = kernel_integral(scene, rows[i, 1:4], rows[i, 0])
        out.extend(_compare(rows[i], phi, g, MAP_REL_TOL))
    return out


# ---------------------------------------------------------------------------
# fieldmap-pointmass: free fall makes the answer the instantaneous Newton sum

def newton_sum(scene, r, t):
    """Instantaneous Newton potential and field of every source at (r, t)."""
    r = np.asarray(r, dtype=float)
    phi = 0.0
    field = np.zeros(3)
    for src in scene["sources"]:
        x, _ = _state(src["trajectory"], t)
        d = r - x
        dist = math.sqrt(d @ d)
        phi += -G * src["mass_kg"] / dist
        field += (-G * src["mass_kg"] / dist**3) * d
    return phi, field


def check_newton_rows(rows, scene):
    out = []
    for row in rows:
        phi, g = newton_sum(scene, row[1:4], row[0])
        out.extend(_compare(row, phi, g, MAP_REL_TOL))
    return out


def check_map(op, text, sample_indices):
    """All checks of one field map: lattice, then rows against the oracle."""
    try:
        rows = parse_rows(text, op["format"])
    except (ValueError, KeyError) as exc:
        return [f"unreadable map: {exc}"]
    problems = check_lattice(rows, op["grid"])
    if problems:
        return problems
    if op["scene"]["ambient"]["kind"] == "point_mass":
        return check_newton_rows(rows, op["scene"])
    return check_uniform_rows(rows, op["scene"], sample_indices)


# ---------------------------------------------------------------------------
# scenarios-cli: each report against its printed prediction

def _flags(argv):
    """{flag: text} from a scenario argv written as --flag=value."""
    return dict(arg.split("=", 1) for arg in argv[2:])


def _vec3(text):
    return np.array([float(p) for p in text.split(",")])


def _rel(a, b):
    return abs(a - b) / abs(b)


def boosted_kernel_average(v, tau_g, r, u_max=40.0):
    """E_u[|r| / |r - v tau_g u|], u ~ Exp(1) truncated at u_max, by scipy quad."""
    s = np.asarray(v, dtype=float) * tau_g
    r = np.asarray(r, dtype=float)
    dist = float(np.linalg.norm(r))

    def f(u):
        d = r - s * u
        return math.exp(-u) * dist / math.sqrt(d @ d)

    points = [1.0]
    u_close = float(s @ r) / float(s @ s) if s @ s > 0.0 else -1.0
    if 0.0 < u_close < u_max:
        points.append(u_close)
    val, _ = quad(f, 0.0, u_max, epsabs=0.0, epsrel=1e-12, limit=500, points=sorted(points))
    return val / (1.0 - math.exp(-u_max))


def check_report(argv, report):
    """Problems in one scenario report, judged against independent predictions."""
    kind = argv[1]
    flags = _flags(argv)
    sim = report["simulated"]
    pred = report["predicted"]
    out = []

    def need(ok, message):
        if not ok:
            out.append(f"{kind}: {message}")

    if kind == "estimate":
        rho = float(flags.get("--rho", DEFAULT_RHO))
        tau = 1.0 / math.sqrt(G * rho)
        need(_rel(sim["tau_g_s"], tau) <= ESTIMATE_REL_TOL, f"tau_g {sim['tau_g_s']!r} vs {tau!r}")
        return out

    tau_g = float(flags["--tau-g"]) if "--tau-g" in flags else 1.0 / math.sqrt(G * DEFAULT_RHO)
    need(_rel(report["inputs"]["tau_g_s"], tau_g) <= 1e-15, "tau_g not echoed")
    if kind == "static":
        shift = float(flags.get("--g", 9.81)) * tau_g**2
        need(_rel(pred["delta_up_m"]["value"], shift) <= 1e-12, "printed prediction is not g tau_g^2")
        need(all(sim["fit_converged"]), "shift fit did not converge")
        for d_up in sim["delta_up_m"]:
            need(_rel(d_up, shift) <= SHIFT_REL_TOL, f"upward shift {d_up!r} vs {shift!r}")
    elif kind == "orbit":
        radius = float(flags.get("--R", 1.0))
        omega = float(flags.get("--omega", 10.0))
        ratio = (omega * tau_g) ** 2
        need(_rel(pred["center_ratio_minus_1"]["value"], ratio) <= 1e-12, "printed ratio")
        scene = {
            "sources": [{"mass_kg": float(flags.get("--mass", 1.0)), "trajectory": {
                "kind": "circular_orbit", "center": [0.0, 0.0, 0.0],
                "radius": radius, "omega": omega}}],
            "ambient": {"kind": "zero"},
            "tau_g_s": tau_g,
        }
        exact, _ = kernel_integral(scene, (0.0, 0.0, 0.0), 0.0)
        need(_rel(sim["center_potential_J_per_kg"], exact) <= MAP_REL_TOL,
             f"center potential {sim['center_potential_J_per_kg']!r} vs quadrature {exact!r}")
        need(_rel(sim["center_ratio_minus_1"], ratio) <= SHIFT_REL_TOL,
             f"center ratio-1 {sim['center_ratio_minus_1']!r} vs {ratio!r}")
        need(_rel(sim["delta_toward_center_m"], radius * ratio) <= SHIFT_REL_TOL,
             f"radial shift {sim['delta_toward_center_m']!r} vs {radius * ratio!r}")
    elif kind == "jump":
        a = _vec3(flags.get("--a", "0,0,0.01"))
        r = _vec3(flags.get("--probe", "0,0.1,0"))
        mass = float(flags.get("--mass", 1.0))
        times = np.linspace(0.01 * tau_g, 40.0 * tau_g, 50)
        echoed = np.asarray(report["inputs"]["times_s"], dtype=float)
        need(echoed.shape == times.shape and np.allclose(echoed, times, rtol=1e-12, atol=0.0),
             "evaluation times are not the documented default")
        need(len(sim["potentials_J_per_kg"]) == len(echoed), "one potential per time")
        d_old = float(np.linalg.norm(r))
        d_new = float(np.linalg.norm(r - a))
        for t, phi in zip(echoed, sim["potentials_J_per_kg"]):
            w_old = math.exp(-t / tau_g)
            want = w_old * (-G * mass / d_old) + (1.0 - w_old) * (-G * mass / d_new)
            need(_rel(phi, want) <= JUMP_REL_TOL, f"potential {phi!r} vs mixture {want!r} at t={t!r}")
    elif kind == "boost":
        v = _vec3(flags.get("--v", "0,1000,0"))
        r = _vec3(flags.get("--probe", "0,1,0"))
        ratio = boosted_kernel_average(v, tau_g, r)
        printed = pred["naive_over_rest"]["value"]
        need(_rel(printed, ratio) <= PREDICTION_REL_TOL, f"printed prediction {printed!r} vs {ratio!r}")
        need(_rel(sim["naive_over_rest"], printed) <= NAIVE_REL_TOL,
             f"naive ratio {sim['naive_over_rest']!r} vs prediction {printed!r}")
        need(abs(sim["framed_over_rest"] - 1.0) <= FRAMED_REL_TOL,
             f"framed ratio {sim['framed_over_rest']!r} vs 1")
    else:
        out.append(f"no oracle for scenario {kind!r}")
    return out
